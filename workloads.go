package sgxperf

import (
	"fmt"
	"sort"
	"time"

	"sgxperf/internal/perf/logger"
	"sgxperf/internal/workloads"
	"sgxperf/internal/workloads/amplify"
	"sgxperf/internal/workloads/glamdring"
	"sgxperf/internal/workloads/keeper"
	"sgxperf/internal/workloads/minidb"
	"sgxperf/internal/workloads/talos"
)

// WorkloadResult is one workload run's outcome.
type WorkloadResult = workloads.Result

// WorkloadOptions parameterises RunWorkload.
type WorkloadOptions struct {
	// Variant selects the workload configuration (see WorkloadVariants);
	// empty picks the workload's default.
	Variant string
	// Ops bounds the run by operation count.
	Ops int
	// Duration bounds the run by virtual time.
	Duration time.Duration
	// Mitigation selects the machine's microcode state.
	Mitigation MitigationLevel
	// Logger attaches the sgx-perf event logger; the trace is returned.
	Logger bool
	// AEX selects the logger's AEX mode (default off).
	AEX AEXMode
	// WorkingSet attaches the working-set estimator (enclave workloads).
	WorkingSet bool
}

// WorkloadRun is the outcome of RunWorkload.
type WorkloadRun struct {
	Result WorkloadResult
	// Trace is the recorded event trace when Options.Logger was set.
	Trace *Trace
	// StartupPages/SteadyPages are working-set measurements when
	// Options.WorkingSet was set.
	StartupPages int
	SteadyPages  int
}

// Workloads lists the evaluation workloads by name. The paper's four
// studies plus the amplify exhibit — the chatty-boundary workload the
// interprocedural lint pass predicts and the hybrid report verifies.
func Workloads() []string {
	out := []string{"talos", "securekeeper", "sqlite", "glamdring", "amplify"}
	sort.Strings(out)
	return out
}

// WorkloadVariants lists the variants of a workload.
func WorkloadVariants(name string) ([]string, error) {
	switch name {
	case "talos":
		return []string{"enclave"}, nil
	case "securekeeper":
		return []string{"proxy"}, nil
	case "sqlite":
		return []string{"native", "enclave", "merged"}, nil
	case "glamdring":
		return []string{"native", "enclave", "optimized", "switchless"}, nil
	case "amplify":
		return []string{"chatty-boundary"}, nil
	default:
		return nil, fmt.Errorf("sgxperf: unknown workload %q (have %v)", name, Workloads())
	}
}

// RunWorkload builds a fresh host and runs one of the paper's four
// evaluation workloads (§5.2) on it.
func RunWorkload(name string, opts WorkloadOptions) (*WorkloadRun, error) {
	if opts.Mitigation == 0 {
		opts.Mitigation = MitigationNone
	}
	hostOpts := []HostOption{WithMitigation(opts.Mitigation)}
	if name == "glamdring" {
		hostOpts = glamdring.RecommendedHostOptions(opts.Mitigation)
	}
	h, err := NewHost(hostOpts...)
	if err != nil {
		return nil, err
	}
	out := &WorkloadRun{}
	var l *Logger
	if opts.Logger {
		mode := opts.AEX
		if mode == 0 {
			mode = AEXOff
		}
		l, err = AttachLogger(h, logger.Options{Workload: name, AEX: mode})
		if err != nil {
			return nil, err
		}
		out.Trace = l.Trace()
	}
	runOpts := workloads.Options{Ops: opts.Ops, Duration: opts.Duration}

	var enclave *Enclave
	var run func(ctx *Context) (WorkloadResult, error)
	ctx := h.NewContext("driver")

	switch name {
	case "talos":
		srv, err := talos.NewServer(h, ctx)
		if err != nil {
			return nil, err
		}
		enclave = srv.Enclave().SgxEnclave()
		run = func(ctx *Context) (WorkloadResult, error) { return srv.Run(ctx, runOpts) }
	case "securekeeper":
		w, err := keeper.New(h, ctx)
		if err != nil {
			return nil, err
		}
		enclave = w.Enclave()
		run = func(ctx *Context) (WorkloadResult, error) {
			return w.Run(keeper.RunOptions{Ops: opts.Ops, Duration: opts.Duration})
		}
	case "sqlite":
		variant := minidb.Variant(opts.Variant)
		if opts.Variant == "" {
			variant = minidb.VariantEnclave
		}
		w, err := minidb.New(h, variant, ctx)
		if err != nil {
			return nil, err
		}
		enclave = w.Enclave()
		run = func(ctx *Context) (WorkloadResult, error) { return w.Run(ctx, runOpts) }
	case "glamdring":
		variant := glamdring.Variant(opts.Variant)
		if opts.Variant == "" {
			variant = glamdring.VariantEnclave
		}
		w, err := glamdring.New(h, variant)
		if err != nil {
			return nil, err
		}
		defer w.Close() // stops switchless workers, a no-op otherwise
		enclave = w.Enclave()
		run = func(ctx *Context) (WorkloadResult, error) { return w.Run(ctx, runOpts) }
	case "amplify":
		w, err := amplify.New(h, ctx)
		if err != nil {
			return nil, err
		}
		enclave = w.Enclave()
		run = func(ctx *Context) (WorkloadResult, error) {
			// Ops scales the checked writes; flush/spill counts keep
			// their deterministic defaults so the predicted-vs-observed
			// arithmetic stays recognisable.
			return w.Run(amplify.RunOptions{Writes: opts.Ops})
		}
	default:
		return nil, fmt.Errorf("sgxperf: unknown workload %q (have %v)", name, Workloads())
	}

	var est *WorkingSetEstimator
	if opts.WorkingSet {
		if enclave == nil {
			return nil, fmt.Errorf("sgxperf: variant %q has no enclave to estimate", opts.Variant)
		}
		est = NewWorkingSetEstimator(h, enclave)
		if err := est.Start(); err != nil {
			return nil, err
		}
		defer est.Stop()
	}

	res, err := run(ctx)
	if err != nil {
		return nil, err
	}
	out.Result = res
	if est != nil {
		// A single-phase measurement: the run covers both start-up and
		// load; callers wanting the two-phase split use the experiment
		// harness.
		out.StartupPages = est.Count()
		out.SteadyPages = est.Count()
	}
	return out, nil
}
