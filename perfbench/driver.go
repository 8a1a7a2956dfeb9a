package main

// The multi-threaded ecall driver of the record workload: nproc
// simulated threads call into one enclave on one host, so the logger's
// per-thread shards record concurrently.

import (
	"fmt"
	"time"

	"sgxperf"
)

const driverEDL = `
enclave {
	trusted {
		public ecall_put([in, size=len] buf, len);
		public ecall_get([out, size=len] buf, len);
		public ecall_tick();
	};
	untrusted {
		ocall_write([in, size=len] buf, len);
		ocall_log(n);
	};
};`

// driverCalls is the number of ecalls each driver thread makes.
const driverCalls = 3000

// driverCall is one seeded ecall: which ecall, how long it computes and
// how many nested ocalls it makes.
type driverCall struct {
	ecall   string
	compute time.Duration
	nested  int
}

// driverPlan is the seeded call sequence of each thread.
type driverPlan struct {
	threads [][]driverCall
}

func newDriverPlan(r *rng, nproc int) *driverPlan {
	ecalls := []string{"ecall_put", "ecall_get", "ecall_tick"}
	p := &driverPlan{threads: make([][]driverCall, nproc)}
	for t := range p.threads {
		calls := make([]driverCall, driverCalls)
		for i := range calls {
			calls[i] = driverCall{
				ecall:   ecalls[r.intn(len(ecalls))],
				compute: time.Duration(r.between(200, 4000)) * time.Nanosecond,
				nested:  r.intn(3),
			}
		}
		p.threads[t] = calls
	}
	return p
}

// run builds a fresh host, optionally attaches the logger, and runs
// every thread's calls concurrently. Thread interleaving is up to the
// scheduler, so the driver has no virtual-time result to repeat; its
// check is that the logger recorded every call it made.
func (p *driverPlan) run(logger bool) (*recording, error) {
	h, err := sgxperf.NewHost()
	if err != nil {
		return nil, err
	}
	rec := &recording{}
	if logger {
		l, err := sgxperf.NewLogger(h, sgxperf.WithWorkload("driver"))
		if err != nil {
			return nil, err
		}
		defer l.Detach()
		rec.trace = l.Trace()
	}
	iface, _, err := sgxperf.ParseEDL(driverEDL)
	if err != nil {
		return nil, err
	}
	handler := func(env *sgxperf.Env, args any) (any, error) {
		c := args.(driverCall)
		env.Compute(c.compute)
		for k := 0; k < c.nested; k++ {
			if _, err := env.Ocall("ocall_write", k); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	trusted := map[string]sgxperf.TrustedFn{"ecall_put": handler, "ecall_get": handler, "ecall_tick": handler}
	ctx := h.NewContext("driver")
	app, err := h.URTS.CreateEnclave(ctx, sgxperf.EnclaveConfig{Name: "driver", NumTCS: len(p.threads) + 1}, iface, trusted)
	if err != nil {
		return nil, err
	}
	otab, err := sgxperf.BuildOcallTable(iface, h, map[string]sgxperf.OcallFn{
		"ocall_write": func(ctx *sgxperf.Context, args any) (any, error) {
			ctx.Compute(300 * time.Nanosecond)
			return nil, nil
		},
		"ocall_log": func(ctx *sgxperf.Context, args any) (any, error) { return nil, nil },
	})
	if err != nil {
		return nil, err
	}
	proxies := sgxperf.Proxies(app, h, otab)
	errs := make(chan error, len(p.threads))
	for t, calls := range p.threads {
		calls := calls
		if err := h.Spawn(fmt.Sprintf("driver-%d", t), func(ctx *sgxperf.Context) {
			for _, c := range calls {
				if _, err := proxies[c.ecall](ctx, c); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}); err != nil {
			return nil, err
		}
	}
	h.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, fmt.Errorf("driver: %w", err)
		}
	}
	ecalls, ocalls := 0, 0
	for _, calls := range p.threads {
		for _, c := range calls {
			ecalls++
			ocalls += c.nested
		}
	}
	if rec.trace != nil && (rec.trace.Ecalls.Len() != ecalls || rec.trace.Ocalls.Len() != ocalls) {
		return nil, fmt.Errorf("driver: recorded %d ecalls and %d ocalls, made %d and %d",
			rec.trace.Ecalls.Len(), rec.trace.Ocalls.Len(), ecalls, ocalls)
	}
	return rec, nil
}
