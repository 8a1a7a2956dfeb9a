package main

// The seeded Go module the lint workload checks: packages of ordinary
// service code over a realistic set of standard-library imports, stubs
// shaped like the sdk and edl APIs the analyzers classify by name, and
// exactly one planted violation per analyzer. Each planted line ends in
// a "// want <analyzer>" comment, which is how the expected diagnostics
// are found.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Module generator parameters. Sizes are fixed so runs on different
// seeds lint the same amount of code; the seed picks names, imports and
// where the violations are planted.
const (
	modName        = "benchmod"
	modPackages    = 10
	modFiles       = 4 // per package
	modFileImports = 6 // standard-library packages per file
)

var modWords = []string{"ledger", "cache", "session", "keystore", "router", "codec", "audit",
	"quota", "pager", "vault", "mailbox", "ticket", "relay", "index", "journal", "tenant"}

// modImports are the standard-library packages filler files draw from,
// each with a helper that uses it. %[1]s is the receiver type, %[2]s a
// per-file suffix.
var modImports = map[string]string{
	"fmt": `func (x *%[1]s) describe%[2]s() string {
	return fmt.Sprintf("%%s/%%d", x.name, x.n)
}`,
	"strings": `func (x *%[1]s) key%[2]s(parts ...string) string {
	return strings.ToLower(strings.Join(append([]string{x.name}, parts...), ":"))
}`,
	"sort": `func (x *%[1]s) ordered%[2]s() []string {
	out := append([]string(nil), x.tags...)
	sort.Strings(out)
	return out
}`,
	"strconv": `func (x *%[1]s) parse%[2]s(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return v + x.n, nil
}`,
	"bytes": `func (x *%[1]s) render%[2]s() []byte {
	var buf bytes.Buffer
	for _, t := range x.tags {
		buf.WriteString(t)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}`,
	"errors": `var errEmpty%[2]s = errors.New("%[1]s: empty")

func (x *%[1]s) check%[2]s() error {
	if x.name == "" {
		return errEmpty%[2]s
	}
	return nil
}`,
	"encoding/json": `func (x *%[1]s) marshal%[2]s() ([]byte, error) {
	return json.Marshal(map[string]any{"name": x.name, "n": x.n, "tags": x.tags})
}`,
	"encoding/binary": `func (x *%[1]s) header%[2]s() []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(x.n))
	return b
}`,
	"crypto/sha256": `func (x *%[1]s) digest%[2]s() [32]byte {
	return sha256.Sum256([]byte(x.name))
}`,
	"math": `func (x *%[1]s) scale%[2]s(f float64) float64 {
	return math.Sqrt(math.Abs(f)) * float64(x.n)
}`,
	"bufio": `func (x *%[1]s) lines%[2]s(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	n := 0
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}`,
	"context": `func (x *%[1]s) wait%[2]s(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}`,
	"time": `func (x *%[1]s) deadline%[2]s(d time.Duration) time.Time {
	return time.Unix(int64(x.n), 0).Add(d)
}`,
	"net/http": `func (x *%[1]s) handler%[2]s() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte(x.name))
	})
}`,
	"path/filepath": `func (x *%[1]s) path%[2]s(dir string) string {
	return filepath.Join(dir, x.name+".db")
}`,
	"regexp": `var pattern%[2]s = regexp.MustCompile(` + "`^[a-z]+$`" + `)

func (x *%[1]s) valid%[2]s() bool {
	return pattern%[2]s.MatchString(x.name)
}`,
}

// genModule writes the seeded module under dir and returns the expected
// diagnostics ("<file>:<line>: <analyzer>", file relative to dir).
func genModule(seed uint64, dir string) (want []string, err error) {
	r := rng(seed)
	files := make(map[string]string)
	files["go.mod"] = "module " + modName + "\n\ngo 1.22\n"
	for name, src := range modStubs {
		files[name] = src
	}

	words := append([]string(nil), modWords...)
	for i := len(words) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		words[i], words[j] = words[j], words[i]
	}
	npkg := modPackages
	pkgs := words[:npkg]
	importNames := make([]string, 0, len(modImports))
	for k := range modImports {
		importNames = append(importNames, k)
	}
	sort.Strings(importNames)
	for _, p := range pkgs {
		for f := 0; f < modFiles; f++ {
			files[fmt.Sprintf("internal/app/%s/%s%d.go", p, p, f)] = fillerFile(&r, p, f, importNames)
		}
	}

	// The planted violations, with seeded names and placement.
	ident := func() string { return words[npkg+r.intn(len(words)-npkg)] }
	wl := ident()
	v := map[string]string{
		"Pkg0": pkgs[r.intn(npkg)], "Pkg1": pkgs[r.intn(npkg)], "Pkg2": pkgs[r.intn(npkg)],
		"Work": wl, "Field": ident() + "Hits", "Trips": fmt.Sprint(r.between(4, 16)),
		"Ocall": "ocall_" + ident(), "Limit": fmt.Sprint(r.between(32, 128)),
	}
	for name, src := range modPlanted {
		for k, val := range v {
			name = strings.ReplaceAll(name, "{{"+k+"}}", val)
			src = strings.ReplaceAll(src, "{{"+k+"}}", val)
		}
		files[name] = src
	}

	wantRE := regexp.MustCompile(`// want ([a-z]+)$`)
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(strings.NewReader(src))
		for line := 1; sc.Scan(); line++ {
			if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
				want = append(want, fmt.Sprintf("%s:%d: %s", name, line, m[1]))
			}
		}
	}
	sort.Strings(want)
	return want, nil
}

// fillerFile is one file of ordinary, violation-free service code.
func fillerFile(r *rng, pkg string, idx int, importNames []string) string {
	typ := fmt.Sprintf("%s%d", strings.ToUpper(pkg[:1])+pkg[1:], idx)
	chosen := map[string]bool{}
	for len(chosen) < modFileImports {
		chosen[importNames[r.intn(len(importNames))]] = true
	}
	if chosen["bufio"] {
		chosen["io"] = true
	}
	var imports []string
	for k := range chosen {
		imports = append(imports, k)
	}
	sort.Strings(imports)

	var b strings.Builder
	fmt.Fprintf(&b, "// Package %s is generated service code.\npackage %s\n\nimport (\n", pkg, pkg)
	for _, k := range imports {
		fmt.Fprintf(&b, "\t%q\n", k)
	}
	fmt.Fprintf(&b, ")\n\n// %[1]s is one %[2]s record.\ntype %[1]s struct {\n\tname string\n\tn    int\n\ttags []string\n}\n\n", typ, pkg)
	fmt.Fprintf(&b, "// New%[1]s builds a %[1]s.\nfunc New%[1]s(name string, n int) *%[1]s {\n\treturn &%[1]s{name: name, n: n}\n}\n\n", typ)
	fmt.Fprintf(&b, "// Tag records a label.\nfunc (x *%s) Tag(t string) { x.tags = append(x.tags, t) }\n", typ)
	for _, k := range imports {
		if src, ok := modImports[k]; ok {
			b.WriteString("\n")
			fmt.Fprintf(&b, src, typ, fmt.Sprint(idx))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// modStubs are the sdk and edl shapes the analyzers classify by name,
// and the clean hot-path method the hotpath check requires in the sdk
// package.
var modStubs = map[string]string{
	"internal/sdk/env.go": `// Package sdk is the trusted-runtime surface handlers use.
package sdk

// Env is the trusted runtime handle handlers receive.
type Env struct{}

// Ocall dispatches an ocall by name.
func (e *Env) Ocall(name string, args any) (any, error) { return nil, nil }

// TrustedFn is the in-enclave handler shape.
type TrustedFn func(env *Env, args any) (any, error)

type runtime struct{ served int }

// Serve is the runtime's per-call entry point.
//
//sgxperf:hotpath
func (r *runtime) Serve() { r.served++ }
`,
	"internal/edl/edl.go": `// Package edl builds enclave interfaces.
package edl

// PtrDir is an explicit pointer direction annotation.
type PtrDir int

const (
	DirValue PtrDir = iota + 1
	DirIn
	DirOut
	DirInOut
	DirUserCheck
)

// Param is one declared call parameter.
type Param struct {
	Name     string
	Dir      PtrDir
	Size     string
	IsString bool
}

// Interface is a boundary-interface builder.
type Interface struct{}

// New returns an empty interface.
func New() *Interface { return &Interface{} }

// AddEcall declares one ecall.
func (i *Interface) AddEcall(name string, public bool, params ...Param) {}

// AddOcall declares one ocall.
func (i *Interface) AddOcall(name string, allow []string, params ...Param) {}
`,
}

// modPlanted are the files holding one violation per analyzer.
var modPlanted = map[string]string{
	"internal/app/{{Pkg0}}/counter.go": `package {{Pkg0}}

import "sync/atomic"

type counter struct {
	{{Field}} int64 // want atomicmix
}

func (c *counter) bump() { atomic.AddInt64(&c.{{Field}}, 1) }

func (c *counter) read() int64 { return c.{{Field}} }
`,
	"internal/app/{{Pkg1}}/queue.go": `package {{Pkg1}}

import "sync"

type queue struct {
	mu  sync.Mutex
	out chan int
	n   int
}

func (q *queue) push(v int) {
	q.mu.Lock()
	q.n++
	q.out <- v // want heldacross
	q.mu.Unlock()
}
`,
	"internal/app/{{Pkg2}}/order.go": `package {{Pkg2}}

import "sync"

type core struct {
	a sync.Mutex
	b sync.Mutex
}

func (c *core) ab() {
	c.a.Lock()
	c.b.Lock() // want lockorder
	c.b.Unlock()
	c.a.Unlock()
}

func (c *core) ba() {
	c.b.Lock()
	c.a.Lock()
	c.a.Unlock()
	c.b.Unlock()
}
`,
	"internal/perf/logger/logger.go": `// Package logger records events.
package logger

import "sync"

// Recorder is the event recorder.
type Recorder struct {
	mu sync.Mutex
	n  int
}

// Record is the per-event entry point.
//
//sgxperf:hotpath
func (r *Recorder) Record() {
	r.mu.Lock() // want hotpath
	r.n++
	r.mu.Unlock()
}
`,
	"internal/sdk/clock.go": `package sdk

import "time"

// Stamp returns the host time.
func Stamp() int64 { return time.Now().UnixNano() } // want vclock
`,
	"internal/workloads/{{Work}}/enclave.go": `// Package {{Work}} is an enclave workload.
package {{Work}}

import "` + modName + `/internal/sdk"

type req struct {
	Len  int
	Data string
}

type handler struct {
	table   [4]uint64
	written int
}

func (h *handler) flushAll(env *sdk.Env) error {
	for i := 0; i < {{Trips}}; i++ {
		if _, err := env.Ocall("{{Ocall}}_chunk", i); err != nil { // want transamp
			return err
		}
	}
	return nil
}

func (h *handler) handlePut(env *sdk.Env, args any) (any, error) {
	a, ok := args.(*req)
	if !ok {
		return nil, nil
	}
	if a.Len > {{Limit}} {
		return nil, nil
	}
	if _, err := env.Ocall("{{Ocall}}_log", a.Data); err != nil {
		return nil, err
	}
	h.written += a.Len // want doublefetch
	return nil, nil
}

func (h *handler) share(env *sdk.Env) error {
	_, err := env.Ocall("{{Ocall}}_table", &h.table) // want ptrescape
	return err
}
`,
	"internal/workloads/{{Work}}/secrets.go": `package {{Work}}

import (
	"` + modName + `/internal/edl"
	"` + modName + `/internal/sdk"
)

type vault struct {
	//sgxperf:secret long-term sealing key, must never cross unsealed
	sealKey [16]byte
	limit   int
}

func (v *vault) leakKey(env *sdk.Env) error {
	_, err := env.Ocall("{{Ocall}}_backup", v.sealKey) // want secretflow
	return err
}

func (v *vault) clampLen(env *sdk.Env, args any) (any, error) {
	a, ok := args.(*req)
	if !ok {
		return nil, nil
	}
	a.Len = v.limit // want edlflow
	return nil, nil
}

func newVault() (map[string]sdk.TrustedFn, *edl.Interface) {
	v := &vault{limit: {{Limit}}}
	impl := map[string]sdk.TrustedFn{
		"ecall_clamp_len": v.clampLen,
	}
	i := edl.New()
	i.AddEcall("ecall_clamp_len", true, edl.Param{Name: "len", Dir: edl.DirIn})
	return impl, i
}
`,
}
