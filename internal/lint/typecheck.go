package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Package is one parsed directory plus, when an analyzer in the run
// needs it, the go/types view of its sources. Type information is
// best-effort: imports that cannot be resolved (a fixture tree outside
// the module, say) are stubbed out and checking continues, so Info may be
// partial. Analyzers must treat missing type info as "don't know" and
// stay silent rather than guess.
type Package struct {
	// Dir is the package directory relative to the analysis root.
	Dir string
	// ImportPath is the path the package was type-checked under
	// (module path + Dir when a go.mod is present).
	ImportPath string
	// Files are the package's non-test sources, sorted by filename.
	Files []*ast.File
	// Types is the checked package (never nil after type checking, but
	// possibly incomplete).
	Types *types.Package
	// Info holds the resolved uses, definitions, selections and types.
	Info *types.Info
}

// tolerantImporter resolves the imports that are not in the tree and
// degrades to an empty stub package when resolution fails, so analysis of
// partial trees (test fixtures, other checkouts) still type-checks what it
// can instead of aborting.
type tolerantImporter struct {
	ext   types.Importer
	stubs map[string]*types.Package
}

// newTreeImporter returns the importer for a tree's non-tree imports.
// With files (import path → export file, from exportFiles) it reads them
// from the toolchain's export data, the compiler's own view of the
// packages, which costs a file read per import where checking the
// standard library from source costs seconds. When files is nil (the go
// command is missing or go list failed) or an export file does not load,
// the whole tree resolves from source instead. One tree never mixes the
// two: each builds its own objects, and a sync.Mutex read from export
// data is not the sync.Mutex checked from source, so lock identities
// would split.
func newTreeImporter(fset *token.FileSet, files map[string]string) *tolerantImporter {
	imp := &tolerantImporter{stubs: make(map[string]*types.Package)}
	if files != nil {
		imp.ext = exportImporter(fset, files)
	}
	if imp.ext == nil {
		imp.ext = importer.ForCompiler(fset, "source", nil)
	}
	return imp
}

// exportImporter reads every package in files (import path → export
// file, "" for none) up front, so that an unreadable file — a toolchain
// newer than this binary's importer, say — shows before the checker is
// handed any package. It returns nil when one does not load.
func exportImporter(fset *token.FileSet, files map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if files[p] == "" {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(files[p])
	})
	var paths []string
	for p, file := range files {
		if file != "" {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := gc.Import(p); err != nil {
			return nil
		}
	}
	return gc
}

func (imp *tolerantImporter) Import(p string) (*types.Package, error) {
	if stub, ok := imp.stubs[p]; ok {
		return stub, nil
	}
	pkg, err := imp.ext.Import(p)
	if err == nil {
		return pkg, nil
	}
	stub := types.NewPackage(p, path.Base(p))
	imp.stubs[p] = stub
	return stub, nil
}

// exportMemo memoises, per process, the export file go list reported for
// each import path ("" when it has none), keyed by the working directory
// it ran in, so only the first tree to import a path pays for go list.
// Failures are not memoised: a later tree tries again.
var exportMemo = struct {
	sync.Mutex
	files map[exportKey]string
}{files: make(map[exportKey]string)}

type exportKey struct{ dir, path string }

// exportFiles returns the export file of every path, running go list for
// the paths not yet memoised. It returns nil when go list cannot run.
// The memo stays locked across go list, so of several trees checked
// at once with the same imports only the first runs it.
func exportFiles(paths []string) map[string]string {
	dir, err := os.Getwd()
	if err != nil {
		return nil
	}
	exportMemo.Lock()
	defer exportMemo.Unlock()
	var missing []string
	for _, p := range paths {
		if _, ok := exportMemo.files[exportKey{dir, p}]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		listed, err := goListExport(missing)
		if err != nil {
			return nil
		}
		for _, p := range missing {
			exportMemo.files[exportKey{dir, p}] = listed[p]
		}
	}
	files := make(map[string]string, len(paths))
	for _, p := range paths {
		files[p] = exportMemo.files[exportKey{dir, p}]
	}
	return files
}

// goListExport runs one go list over paths from the working directory,
// where the source importer would resolve them too, so a fixture that
// imports a package of the enclosing module still finds it. -e keeps a
// path that does not resolve or compile from failing the batch: it just
// comes back without an export file. GOPROXY=off keeps linting off the
// network: a path no local module provides is never looked up.
func goListExport(paths []string) (map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-json=ImportPath,Export", "--"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	files := make(map[string]string, len(paths))
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var pkg struct{ ImportPath, Export string }
		if err := dec.Decode(&pkg); err == io.EOF {
			return files, nil
		} else if err != nil {
			return nil, err
		}
		files[pkg.ImportPath] = pkg.Export
	}
}

// externalImports returns, sorted, the import paths of files that go list
// can resolve: not one of pkgs, not C (FakeImportC answers it) or unsafe
// (every importer builds it in), and not a path go list would read as
// something else — a relative directory, a pattern or a meta-package such
// as std — which stub out instead.
func externalImports(files []*ast.File, pkgs []*Package) []string {
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		seen[pkg.ImportPath] = true
	}
	var out []string
	for _, f := range files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil || seen[p] || !listable(p) {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func listable(p string) bool {
	switch p {
	case "", "C", "unsafe", "all", "std", "cmd", "tool", "work":
		return false
	}
	return !build.IsLocalImport(p) && !strings.Contains(p, "...")
}

// modulePath reads the module path from root/go.mod ("" when absent).
func modulePath(root string) string {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(raw)
	if m == nil {
		return ""
	}
	return string(m[1])
}

// typecheck resolves types for every parsed package. Imports between the
// parsed packages resolve to each other (dependencies are checked first),
// so lock identities and function names agree across the tree; everything
// else goes through one tolerant importer for the whole tree, reading the
// export data that a single go list locates for all of the tree's other
// imports, or source when that fails (newTreeImporter). Checking is
// tolerant throughout: a types error never fails the run (the build gate
// catches real ones); it only leaves holes in Info that analyzers skip.
func typecheck(root string, fset *token.FileSet, pkgs []*Package) {
	mod := modulePath(root)
	tc := &treeChecker{
		fset:   fset,
		byPath: make(map[string]*Package, len(pkgs)),
		state:  make(map[string]int, len(pkgs)),
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		ipath := pkg.Dir
		switch {
		case mod != "" && pkg.Dir == ".":
			ipath = mod
		case mod != "":
			ipath = mod + "/" + filepath.ToSlash(pkg.Dir)
		default:
			ipath = "lintfixture/" + filepath.ToSlash(pkg.Dir)
		}
		pkg.ImportPath = ipath
		tc.byPath[ipath] = pkg
		files = append(files, pkg.Files...)
	}
	tc.imp = newTreeImporter(fset, exportFiles(externalImports(files, pkgs)))
	for _, pkg := range pkgs {
		tc.check(pkg)
	}
}

// treeChecker type-checks the parsed packages, resolving in-tree imports
// to the freshly-checked package objects so identities unify.
type treeChecker struct {
	fset   *token.FileSet
	imp    *tolerantImporter
	byPath map[string]*Package
	state  map[string]int // 0 unvisited, 1 in progress, 2 done
}

func (tc *treeChecker) check(pkg *Package) {
	if tc.state[pkg.ImportPath] != 0 {
		return
	}
	tc.state[pkg.ImportPath] = 1
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    tc,
		Error:       func(error) {}, // collect nothing; keep checking
		FakeImportC: true,
	}
	tpkg, _ := conf.Check(pkg.ImportPath, tc.fset, pkg.Files, info)
	if tpkg == nil {
		tpkg = types.NewPackage(pkg.ImportPath, "")
	}
	pkg.Types = tpkg
	pkg.Info = info
	tc.state[pkg.ImportPath] = 2
}

// Import prefers an in-tree package (checking it on demand; an import
// cycle degrades to the external importer) over external resolution.
func (tc *treeChecker) Import(p string) (*types.Package, error) {
	if dep, ok := tc.byPath[p]; ok && tc.state[p] != 1 {
		tc.check(dep)
		if dep.Types != nil {
			return dep.Types, nil
		}
	}
	return tc.imp.Import(p)
}

// --- suppression annotations ---------------------------------------------

// allowDirective is the inline suppression marker:
//
//	//sgxperf:allow(heldacross) flush owns the shard; the send is bounded
//
// placed on (or on the line directly above) the flagged statement. The
// analyzer name in parentheses must match, and the justification is
// mandatory — an allow without a reason is itself a diagnostic.
const allowDirective = "//sgxperf:allow"

var allowRE = regexp.MustCompile(`^//sgxperf:allow\(([a-z]+)\)\s*(.*)$`)

// an allowKey locates one suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowSet wraps the shared directiveSet with the allow directive's
// parse syntax and problem wording.
type allowSet struct {
	*directiveSet
}

// collectAllows scans every comment in the tree for allow directives.
func collectAllows(fset *token.FileSet, pkgs []*Package) *allowSet {
	return &allowSet{collectDirectives(fset, pkgs, allowRE, "")}
}

// allowed reports whether a diagnostic of the named analyzer at pos is
// suppressed by an allow directive on the same line or the line above.
func (as *allowSet) allowed(analyzer string, pos token.Pos) bool {
	if as == nil {
		return false
	}
	return as.covers(analyzer, pos)
}

// problems returns diagnostics about the annotations themselves: allows
// with no justification, and allows for an active analyzer that matched
// nothing (stale suppressions hide future regressions).
func (as *allowSet) problems(active map[string]bool) []Diagnostic {
	return as.directiveSet.problems(active,
		func(a string) string {
			return "//sgxperf:allow(" + a + ") needs a one-line justification after the parenthesis"
		},
		func(a string) string {
			return "stale //sgxperf:allow(" + a + "): no diagnostic here to suppress; remove the annotation"
		})
}
