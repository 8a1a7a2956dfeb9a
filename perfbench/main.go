// Command perfbench is the repository benchmark: it drives seeded
// workloads through the tool's public entry points, checks every output
// and prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) as one JSON line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload record --seed 1 --seconds 10 --trace 0
//
// README.md in this directory explains each workload, its generator
// parameters and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The metrics with their units, in the order BENCHMARK.json lists them.
// Every run prints every metric of its mode; a layer a workload does not
// run reads 0.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"latency_ms", "ms"},
		{"throughput_per_s", "1/s"},
		{"peak_heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"host.run_s", "s"},
		{"host.transitions", "count"},
		{"logger.ns_per_event", "ns"},
		{"logger.events", "count"},
		{"evstore.encode_s", "s"},
		{"evstore.bytes_per_event", "B"},
		{"evstore.decode_s", "s"},
		{"evstore.chunks_read", "count"},
		{"analyzer.analyze_s", "s"},
		{"analyzer.stream_s", "s"},
		{"analyzer.events_per_s", "1/s"},
		{"analyzer.stream_peak_heap_mb", "MB"},
		{"apiv1.marshal_s", "s"},
		{"apiv1.report_bytes", "B"},
		{"serve.upload.p50_ms", "ms"},
		{"serve.upload.p99_ms", "ms"},
		{"serve.append.p50_ms", "ms"},
		{"serve.append.p99_ms", "ms"},
		{"serve.report.p50_ms", "ms"},
		{"serve.report.p99_ms", "ms"},
		{"serve.stats.p50_ms", "ms"},
		{"serve.stats.p99_ms", "ms"},
		{"serve.lint.p50_ms", "ms"},
		{"serve.lint.p99_ms", "ms"},
		{"serve.p99_ms", "ms"},
		{"serve.max_rps", "1/s"},
		{"serve.append_to_report_ms", "ms"},
		{"serve.cache.hits", "count"},
		{"serve.cache.misses", "count"},
		{"serve.cache.hit_ratio", "ratio"},
		{"serve.windows.total", "count"},
		{"serve.windows.computed", "count"},
		{"serve.windows.reused_ratio", "ratio"},
		{"serve.heap_bytes", "B"},
		{"serve.generator_lag_ms", "ms"},
		{"serve.inflight_max", "count"},
		{"lint.parse_s", "s"},
		{"lint.typecheck_s", "s"},
		{"lint.vclock_s", "s"},
		{"lint.hotpath_s", "s"},
		{"lint.lockorder_s", "s"},
		{"lint.heldacross_s", "s"},
		{"lint.atomicmix_s", "s"},
		{"lint.transamp_s", "s"},
		{"lint.doublefetch_s", "s"},
		{"lint.ptrescape_s", "s"},
		{"lint.secretflow_s", "s"},
		{"lint.edlflow_s", "s"},
		{"lint.diagnostics", "count"},
		{"lint.files", "count"},
		{"lint.lines", "count"},
		{"trace.overhead_ms", "ms"},
	}
)

type metricDef struct{ name, unit string }

// config is what every workload is given.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// work is the scratch directory for generated inputs and spans,
	// inside the checkout.
	work string
	// nproc bounds the load generator's threads and connections.
	nproc int
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// e2e holds the untraced end-to-end metrics except setup_s.
	e2e map[string]float64
	// layers holds the traced run's per-layer metrics.
	layers map[string]float64
	// report lines, printed before the result.
	lines []string
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// failf counts one failed operation and records why.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		o.printf("FAILED: "+format, args...)
	}
}

// workload is one benchmark workload. setup prepares its inputs from the
// seed and is called several times (each call replaces the previous
// state) so its cost is measured as a median; run measures for the
// configured time and checks every output.
type workload interface {
	setup() error
	run(tr *tracer) (*outcome, error)
	close()
}

// Set-up runs at least setupMinRepeats times and, while it is cheap,
// until setupBudget has been spent, so its median is steady whether one
// set-up takes milliseconds or a second.
const (
	setupMinRepeats = 8
	setupMaxRepeats = 200
	setupBudget     = 3 * time.Second
)

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "record":
		return &recordWorkload{cfg: cfg}, nil
	case "analyze":
		return &analyzeWorkload{cfg: cfg}, nil
	case "serve":
		return &serveWorkload{cfg: cfg}, nil
	case "lint":
		return &lintWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have record, analyze, serve, lint)", cfg.workload)
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: record, analyze, serve or lint")
		seed         = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds      = flag.Int("seconds", 10, "seconds the timed phase lasts")
		traceMode    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		work         = flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
		lintChild    = flag.String("lint-child", "", "internal: lint the module in this directory and print the diagnostics")
		childTrace   = flag.Bool("child-trace", false, "internal: with -lint-child, time each lint stage separately")
		pinSeeds     = flag.Int("pin-seeds", 0, "print pinned.go with the gates' digests for seeds 0 to n-1, and exit")
	)
	flag.Parse()
	if *pinSeeds > 0 {
		if err := writePins(*pinSeeds, *work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench pins:", err)
			os.Exit(1)
		}
		return
	}
	if *lintChild != "" {
		if err := runLintChild(*lintChild, *childTrace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench lint child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workloadName, *seed, *seconds, *traceMode, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, traceMode int, work string) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if traceMode != 0 && traceMode != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	// The load generator sizes itself to the host; a GOMAXPROCS that
	// differs from the CPU count would make its figures describe another
	// machine.
	nproc := runtime.NumCPU()
	if gmp := runtime.GOMAXPROCS(0); gmp != nproc {
		return fmt.Errorf("GOMAXPROCS=%d but nproc=%d; unset GOMAXPROCS", gmp, nproc)
	}
	abs, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(abs)

	cfg := config{workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second,
		traced: traceMode == 1, work: abs, nproc: nproc}
	w, err := newWorkload(cfg)
	if err != nil {
		return err
	}
	defer w.close()
	// Marshalling a map of strings and numbers cannot fail.
	env, _ := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traceMode,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	})
	fmt.Printf("env %s\n", env)

	var setups, setupStolen []float64
	for spent := time.Duration(0); len(setups) < setupMinRepeats ||
		(spent < setupBudget && len(setups) < setupMaxRepeats); {
		c0 := readCPUStat()
		start := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
		setupStolen = append(setupStolen, stolenShare(c0))
	}
	setupS, setupN := unstolenTime(setups, setupStolen)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	cpu0 := readCPUStat()
	out, err := w.run(tr)
	if err != nil {
		return err
	}
	if cpu1 := readCPUStat(); cpu1.total > cpu0.total {
		// Time the hypervisor gave this machine's CPUs to someone else
		// slows every figure of the run; each figure takes out its own
		// samples' share (measure.go).
		out.printf("host: cpu steal %.1f%%, cpus busy %.1f%% (this run included), %.1f%% of the busy time stolen, over the timed phase",
			100*float64(cpu1.steal-cpu0.steal)/float64(cpu1.total-cpu0.total),
			100*float64((cpu1.total-cpu1.idle)-(cpu0.total-cpu0.idle))/float64(cpu1.total-cpu0.total),
			100*stolenShare(cpu0))
	}
	if tr != nil {
		if err := tr.write(filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
			return err
		}
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	fmt.Printf("setup_s %.4f (steal taken out, median of the %d least-stolen of %d set-ups; raw median %.4f)\n",
		setupS, setupN, len(setups), median(setups))
	fmt.Printf("error_ratio %.6f (%d failed of %d attempted)\n",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)

	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: make(map[string]resultMetric)}
	if cfg.traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = resultMetric{Value: out.layers[m.name], Unit: m.unit}
		}
	} else {
		out.e2e["setup_s"] = setupS
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok || v <= 0 {
				res.Correct = false
				fmt.Printf("FAILED: end-to-end metric %s not measured\n", m.name)
			}
			res.Metrics[m.name] = resultMetric{Value: v, Unit: m.unit}
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if !res.Correct {
		return errors.New("correctness check failed")
	}
	return nil
}

// cpuStat is the machine-wide CPU time split from /proc/stat, in clock
// ticks; zero where the file is unavailable.
type cpuStat struct{ total, idle, steal uint64 }

func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		switch i {
		case 3, 4: // idle, iowait
			st.idle += v
		case 7:
			st.steal = v
		}
	}
	return st
}

// rng is the splitmix64 generator every input is drawn from.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns an int in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// timedLoop calls pass until d has elapsed, at least minPasses times.
func timedLoop(d time.Duration, minPasses int, pass func(i int) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < d; i++ {
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}
