package lint

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// badRepo is sgx-perf-vet's planted-violation fixture: one diagnostic
// per analyzer, several of which need types from sync and the in-tree sdk
// to fire.
const badRepo = "../../cmd/sgx-perf-vet/testdata/badrepo"

// resetExportMemo empties the process-wide export-file memo now and after
// the test, so the next tree runs go list (or fails to) afresh.
func resetExportMemo(t *testing.T) {
	t.Helper()
	reset := func() {
		exportMemo.Lock()
		exportMemo.files = make(map[exportKey]string)
		exportMemo.Unlock()
	}
	reset()
	t.Cleanup(reset)
}

// memoPaths returns the import paths go list has been asked about.
func memoPaths() []string {
	exportMemo.Lock()
	defer exportMemo.Unlock()
	var out []string
	for k := range exportMemo.files {
		out = append(out, k.path)
	}
	sort.Strings(out)
	return out
}

// TestExportDataMatchesSourceFallback proves the two importers are
// interchangeable for the analyzers: badrepo linted with imports read
// from export data and again with the go command off PATH, which forces
// the whole tree onto the source importer, yields the same diagnostics.
func TestExportDataMatchesSourceFallback(t *testing.T) {
	resetExportMemo(t)
	viaExport, err := Run(badRepo, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if files := exportFiles([]string{"sync"}); files["sync"] == "" {
		t.Fatalf("go list found no export data for sync (files=%v); the export path was not exercised", files)
	}
	if len(viaExport) == 0 {
		t.Fatal("no diagnostics on badrepo; the comparison would be vacuous")
	}

	resetExportMemo(t)
	t.Setenv("PATH", t.TempDir())
	if files := exportFiles([]string{"sync"}); files != nil {
		t.Fatal("exportFiles succeeded without a go command; the fallback was not exercised")
	}
	viaSource, err := Run(badRepo, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := messages(viaSource), messages(viaExport); !reflect.DeepEqual(got, want) {
		t.Errorf("source fallback diagnostics differ from export data:\nsource:\n%s\nexport:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestExternalImportsBatch proves what the one go list of a tree is asked
// about: each outside import once, never C (FakeImportC answers it),
// unsafe (built into every importer), a relative path or an in-tree
// package, while unsafe still resolves and a listed import type-checks
// for real rather than as a stub.
func TestExternalImportsBatch(t *testing.T) {
	resetExportMemo(t)
	tree := loadTyped(t, map[string]string{
		"go.mod": "module example.com/fix\n\ngo 1.22\n",
		"internal/a/a.go": `package a

type A struct{}
`,
		"internal/app/app.go": `package app

import (
	"strings"
	"unsafe"

	"example.com/fix/internal/a"
)

var P unsafe.Pointer

func Build(x a.A) *strings.Builder { return new(strings.Builder) }
`,
		"internal/app/cgo.go": `package app

import "C"

import (
	"fmt"
	"strings"
)

var _ = fmt.Sprint(strings.ToUpper(""))
`,
		"internal/app/rel.go": `package app

import _ "./local"
`,
	})
	pkg := findPkg(t, tree, "internal/app")
	if got, want := externalImports(pkg.Files, tree.Pkgs), []string{"fmt", "strings"}; !reflect.DeepEqual(got, want) {
		t.Errorf("externalImports = %v, want %v", got, want)
	}
	if got, want := memoPaths(), []string{"fmt", "strings"}; !reflect.DeepEqual(got, want) {
		t.Errorf("go list was asked about %v, want %v", got, want)
	}

	p, ok := pkg.Types.Scope().Lookup("P").(*types.Var)
	if !ok || p.Type() != types.Typ[types.UnsafePointer] {
		t.Errorf("P = %v, want a var of type unsafe.Pointer", p)
	}
	build, ok := pkg.Types.Scope().Lookup("Build").(*types.Func)
	if !ok {
		t.Fatal("Build not type-checked")
	}
	res := build.Type().(*types.Signature).Results().At(0).Type()
	if res.String() != "*strings.Builder" {
		t.Fatalf("Build returns %s, want *strings.Builder", res)
	}
	if types.NewMethodSet(res).Lookup(nil, "WriteString") == nil {
		t.Error("*strings.Builder has no WriteString; strings resolved to a stub")
	}
}

// TestUnloadableExportDataFallsBackToSource proves an export file the
// importer cannot read (a newer toolchain's format, say) sends the whole
// tree to the source importer rather than stubbing that one package
// beside export-data packages.
func TestUnloadableExportDataFallsBackToSource(t *testing.T) {
	junk := filepath.Join(t.TempDir(), "sync.export")
	if err := os.WriteFile(junk, []byte("not export data"), 0o644); err != nil {
		t.Fatal(err)
	}
	imp := newTreeImporter(token.NewFileSet(), map[string]string{"sync": junk})
	pkg, err := imp.Import("sync")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Scope().Lookup("Mutex") == nil {
		t.Error("sync resolved to a stub; an unloadable export file did not fall back to source")
	}
}

// TestConcurrentRunsShareExportMemo runs four lints of badrepo at once
// against an empty memo, as serve does for concurrent source lints: the
// go list they share must neither race nor hand any of them a different
// answer.
func TestConcurrentRunsShareExportMemo(t *testing.T) {
	resetExportMemo(t)
	const n = 4
	results := make([][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			diags, err := Run(badRepo, Analyzers())
			results[i], errs[i] = messages(diags), err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if len(results[i]) == 0 {
			t.Fatalf("run %d: no diagnostics on badrepo", i)
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("run %d diagnostics differ from run 0:\n%s\nvs\n%s",
				i, strings.Join(results[i], "\n"), strings.Join(results[0], "\n"))
		}
	}
}
