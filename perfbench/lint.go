package main

// The lint workload: the ten-analyzer pass over the seeded module, each
// pass in a fresh process as sgx-perf-vet users run it. Parsing,
// type-checking the standard library from source and the analyzers do
// all the work; the trace layers do none.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sgxperf/internal/lint"
)

type lintWorkload struct {
	cfg          config
	dir          string
	want         []string
	files, lines int
}

func (w *lintWorkload) setup() error {
	w.dir = filepath.Join(w.cfg.work, "lintmod")
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	want, err := genModule(w.cfg.seed, w.dir)
	if err != nil {
		return err
	}
	w.want, w.files, w.lines = want, 0, 0
	return filepath.WalkDir(w.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		w.files++
		w.lines += bytes.Count(raw, []byte("\n"))
		return nil
	})
}

func (w *lintWorkload) close() {}

// childResult is what a lint child process prints.
type childResult struct {
	Diagnostics []string `json:"diagnostics"`
	PeakHeapMB  float64  `json:"peak_heap_mb"`
	Spans       []span   `json:"spans,omitempty"`
}

// runLintChild is the fresh process: lint the module at dir and print
// the diagnostics. With traced set it times parsing, type-checking and
// each analyzer separately, in roster order over one shared tree.
func runLintChild(dir string, traced bool) error {
	heap := startHeapPeak(heapInUse)
	var diags []lint.Diagnostic
	var tr *tracer
	if !traced {
		var err error
		if diags, err = lint.Run(dir, lint.Analyzers()); err != nil {
			return err
		}
	} else {
		tr = newTracer()
		var tree *lint.Tree
		err := tr.call(0, "lint.LoadTree", func() (err error) {
			tree, err = lint.LoadTree(dir)
			return err
		})
		if err != nil {
			return err
		}
		// An analyzer that asks for types and does nothing else isolates
		// the type check, which otherwise lands on the first analyzer
		// that needs it.
		typecheck := &lint.Analyzer{Name: "typecheck", NeedTypes: true, Run: func(*lint.Pass) error { return nil }}
		if err := tr.call(0, "lint.typecheck", func() error {
			_, err := lint.RunTree(tree, []*lint.Analyzer{typecheck})
			return err
		}); err != nil {
			return err
		}
		for _, a := range lint.Analyzers() {
			err := tr.call(0, "lint."+a.Name, func() error {
				ds, err := lint.RunTree(tree, []*lint.Analyzer{a})
				diags = append(diags, ds...)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	res := childResult{PeakHeapMB: heap.finish()}
	for _, d := range diags {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			return err
		}
		res.Diagnostics = append(res.Diagnostics, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), d.Pos.Line, d.Analyzer))
	}
	if tr != nil {
		res.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// pass runs one lint child and returns its wall time, the share of the
// machine's busy CPU time stolen meanwhile, and its output.
func (w *lintWorkload) pass(traced bool) (time.Duration, float64, *childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, nil, err
	}
	args := []string{"-lint-child", w.dir}
	if traced {
		args = append(args, "-child-trace")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	c0 := readCPUStat()
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	stolen := stolenShare(c0)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("lint child: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return 0, 0, nil, fmt.Errorf("lint child output: %w", err)
	}
	return wall, stolen, &res, nil
}

func (w *lintWorkload) run(tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	want := strings.Join(w.want, "\n")
	var walls, stolens, heaps, untraced []float64
	var diags int
	minPasses := 3
	if tr != nil {
		minPasses = 6
	}
	// Pass 0 warms the page cache with the module and the standard
	// library sources and is checked but not timed.
	err := timedLoop(w.cfg.seconds, minPasses+1, func(i int) error {
		// The traced run alternates a stage-timed child with a plain one;
		// the difference is the tracing overhead.
		traced := tr != nil && i%2 == 0 && i > 0
		offset := tr.offset()
		wall, stolen, res, err := w.pass(traced)
		if err != nil {
			return err
		}
		o.attempted++
		// The diagnostics must be exactly the planted set; the per-stage
		// child reports each analyzer separately, so it is deduplicated
		// the way a single run is.
		got := dedupeSorted(res.Diagnostics)
		if strings.Join(got, "\n") != want {
			o.failf("pass %d: diagnostics\n%s\nwant\n%s", i, strings.Join(got, "\n"), want)
		}
		diags = len(got)
		switch {
		case i == 0:
		case traced:
			root := tr.add(0, "lint.pass", offset, offset+wall.Nanoseconds())
			tr.adopt(root, offset, res.Spans)
		case tr != nil:
			untraced = append(untraced, wall.Seconds())
		default:
			walls = append(walls, wall.Seconds())
			stolens = append(stolens, stolen)
			heaps = append(heaps, res.PeakHeapMB)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.printf("lint: %d files, %d lines, %d planted diagnostics, %d passes (1 of them warm-up)", w.files, w.lines, len(w.want), o.attempted)
	if tr == nil {
		wall, n := unstolenTime(walls, stolens)
		o.printf("lint_s %.4f (steal taken out, median of the %d least-stolen of %d fresh-process passes; raw median %.4f over all)",
			wall, n, len(walls), median(walls))
		o.e2e["latency_ms"] = wall * 1e3
		o.e2e["throughput_per_s"] = float64(w.lines) / wall
		o.e2e["peak_heap_mb"] = median(heaps)
		return o, nil
	}
	self := layerMedians(tr, "lint.pass")
	o.layers["lint.parse_s"] = self["lint.LoadTree"]
	o.layers["lint.typecheck_s"] = self["lint.typecheck"]
	for _, a := range lint.Analyzers() {
		o.layers["lint."+a.Name+"_s"] = self["lint."+a.Name]
	}
	o.layers["lint.diagnostics"] = float64(diags)
	o.layers["lint.files"] = float64(w.files)
	o.layers["lint.lines"] = float64(w.lines)
	checkAdds(o, tr, "lint.pass", untraced)
	return o, nil
}

// dedupeSorted sorts and removes repeats.
func dedupeSorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}
