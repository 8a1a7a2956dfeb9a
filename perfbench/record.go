package main

// The record workload: the paper's workloads run under the logger
// through sgxperf.RunWorkload, plus an ecall driver with nproc threads
// on one host, and each trace is saved the way sgx-perf-log saves it.
// The host, logger and evstore encode layers do nearly all the work.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sgxperf"
)

// recordJob is one seeded recording: a paper workload, in its enclave
// variant, or the multi-threaded ecall driver.
type recordJob struct {
	name string
	ops  int
	// driver is set for the multi-threaded ecall driver.
	driver *driverPlan
}

type recordWorkload struct {
	cfg  config
	jobs []recordJob
	dir  string
}

func (w *recordWorkload) setup() error {
	r := rng(w.cfg.seed)
	// TaLoS requests and Glamdring signatures are transition-heavy;
	// SQLite inserts are bound by the simulator. Sizes are fixed so runs
	// on different seeds measure the same amount of work; the seed
	// draws the driver's calls.
	w.jobs = []recordJob{
		{name: "talos", ops: 750},
		{name: "glamdring", ops: 3},
		{name: "sqlite", ops: 3000},
		{name: "driver", driver: newDriverPlan(&r, w.cfg.nproc)},
	}
	w.dir = filepath.Join(w.cfg.work, "record")
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	// One logger-off recording of every job lets lazy initialisation
	// finish before timing.
	for _, j := range w.jobs {
		if _, err := j.record(false); err != nil {
			return err
		}
	}
	return nil
}

func (w *recordWorkload) close() {}

// recording is one job's output.
type recording struct {
	trace *sgxperf.Trace
	// virtual is the workload's virtual-time result; the paper's figures
	// are reproduced from it, so it must repeat exactly for the seed.
	// The multi-threaded driver has none.
	virtual string
}

func (j recordJob) record(logger bool) (*recording, error) {
	if j.driver != nil {
		return j.driver.run(logger)
	}
	run, err := sgxperf.RunWorkload(j.name, sgxperf.WorkloadOptions{Variant: "enclave", Ops: j.ops, Logger: logger})
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", j.name, err)
	}
	return &recording{trace: run.Trace, virtual: fmt.Sprintf("%d ops in %d ns", run.Result.Ops, run.Result.Virtual.Nanoseconds())}, nil
}

func traceEvents(t *sgxperf.Trace) int {
	return t.Ecalls.Len() + t.Ocalls.Len() + t.AEXs.Len() + t.Paging.Len() + t.Syncs.Len() + t.Threads.Len() + t.Switchless.Len()
}

// rowCounts lists the trace's table sizes in a fixed order.
func rowCounts(t *sgxperf.Trace) [9]int {
	return [9]int{t.Meta.Len(), t.Ecalls.Len(), t.Ocalls.Len(), t.AEXs.Len(), t.Paging.Len(),
		t.Syncs.Len(), t.Threads.Len(), t.Enclaves.Len(), t.Switchless.Len()}
}

// recordPass is what one pass over every job measured.
type recordPass struct {
	wall   time.Duration
	stolen float64
	events int
	bytes  int64
	heapMB float64
	saved  []savedTrace
}

type savedTrace struct {
	job     string
	path    string
	counts  [9]int
	key     string
	virtual string
}

// pass records every job and saves each trace. With logger off it runs
// the simulator alone and saves nothing.
func (w *recordWorkload) pass(tr *tracer, i int, logger bool) (*recordPass, error) {
	name := "record.pass"
	if !logger {
		name = "record.pass.nologger"
	}
	// Each pass starts from a collected heap, as a fresh sgx-perf-log
	// process would.
	runtime.GC()
	heap := startHeapPeak(heapInUse)
	c0 := readCPUStat()
	start := time.Now()
	root := tr.begin(0, name)
	p := &recordPass{}
	// The check's content keys are taken right after each save, so the
	// recording can be released before the next job runs as it would be
	// by its own sgx-perf-log process; their time is left out of the
	// pass.
	var keying time.Duration
	for _, j := range w.jobs {
		var rec *recording
		err := tr.call(root, "sgxperf.RunWorkload", func() (err error) {
			rec, err = j.record(logger)
			return err
		})
		if err != nil {
			heap.finish()
			return nil, err
		}
		if !logger {
			p.saved = append(p.saved, savedTrace{job: j.name + "/nologger", virtual: rec.virtual})
			continue
		}
		path := filepath.Join(w.dir, fmt.Sprintf("%s-%d.evc", j.name, i%2))
		if err := tr.call(root, "evstore.SaveFile", func() error { return rec.trace.SaveFile(path) }); err != nil {
			heap.finish()
			return nil, fmt.Errorf("save %s: %w", j.name, err)
		}
		k0 := time.Now()
		id := tr.begin(root, "evstore.ContentKey")
		p.saved = append(p.saved, savedTrace{job: j.name, path: path, counts: rowCounts(rec.trace),
			key: rec.trace.ContentKey(), virtual: rec.virtual})
		tr.end(id)
		p.events += traceEvents(rec.trace)
		keying += time.Since(k0)
	}
	tr.end(root)
	p.wall = time.Since(start) - keying
	p.stolen = stolenShare(c0)
	p.heapMB = heap.finish()
	for _, s := range p.saved {
		if s.path == "" {
			continue
		}
		fi, err := os.Stat(s.path)
		if err != nil {
			return nil, err
		}
		p.bytes += fi.Size()
	}
	return p, nil
}

// check reloads each saved trace and compares it with what was recorded,
// and compares each virtual-time result with the first pass's.
func (w *recordWorkload) check(tr *tracer, p *recordPass, want map[string]string, o *outcome) {
	root := tr.begin(0, "record.check")
	defer tr.end(root)
	for _, s := range p.saved {
		if s.virtual != "" {
			o.attempted++
			if prev, ok := want[s.job]; !ok {
				want[s.job] = s.virtual
			} else if prev != s.virtual {
				o.failf("%s: virtual-time result %q, earlier run gave %q", s.job, s.virtual, prev)
			}
		}
		if s.path == "" {
			continue
		}
		o.attempted++
		var loaded *sgxperf.Trace
		err := tr.call(root, "evstore.LoadFile", func() (err error) {
			loaded, err = sgxperf.LoadTrace(s.path)
			return err
		})
		switch {
		case err != nil:
			o.failf("%s: reload: %v", s.job, err)
		case rowCounts(loaded) != s.counts:
			o.failf("%s: reloaded row counts %v, recorded %v", s.job, rowCounts(loaded), s.counts)
		case loaded.ContentKey() != s.key:
			o.failf("%s: reloaded content key differs from the recorded trace", s.job)
		}
	}
}

func (w *recordWorkload) run(tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	// want maps each job to the virtual-time result its first run gave.
	want := make(map[string]string)
	minPasses := 3
	if tr != nil {
		minPasses = 9
	}
	var walls, stolen, rates, heaps, untraced, events []float64
	var last *recordPass
	err := timedLoop(w.cfg.seconds, minPasses+1, func(i int) error {
		if i == 0 {
			// Pass 0 warms the code, the page cache and the heap and is
			// checked but not timed.
			p, err := w.pass(nil, i, true)
			if err != nil {
				return err
			}
			w.check(tr, p, want, o)
			return nil
		}
		// The traced run cycles through a traced pass, an untraced pass
		// (for the tracing overhead) and a logger-off pass (for the
		// simulator's own share).
		ptr, logger := tr, true
		if tr != nil {
			switch i % 3 {
			case 1:
				ptr = nil
			case 2:
				logger = false
			}
		}
		p, err := w.pass(ptr, i, logger)
		if err != nil {
			return err
		}
		w.check(tr, p, want, o)
		switch {
		case !logger:
		case ptr == nil && tr != nil:
			untraced = append(untraced, p.wall.Seconds())
		default:
			walls = append(walls, p.wall.Seconds())
			stolen = append(stolen, p.stolen)
			rates = append(rates, float64(p.events)/p.wall.Seconds())
			heaps = append(heaps, p.heapMB)
			events = append(events, float64(p.events))
			last = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	evs := median(events)
	o.printf("record: %d passes of %d jobs, %.0f events per pass", len(walls), len(w.jobs), evs)
	for _, s := range last.saved {
		if s.virtual != "" {
			o.printf("record: %s virtual result %s (checked for repeat, not a wall-clock metric)", s.job, s.virtual)
		}
	}
	wall, _ := unstolenTime(walls, stolen)
	rate, n := unstolenRate(rates, stolen)
	o.printf("record_events_per_s %.0f (steal taken out, median of the %d least-stolen of %d passes; raw median %.0f over all)",
		rate, n, len(rates), median(rates))
	o.e2e["latency_ms"] = wall * 1e3
	o.e2e["throughput_per_s"] = rate
	o.e2e["peak_heap_mb"] = median(heaps)
	if tr == nil {
		return o, nil
	}

	self := layerMedians(tr, "record.pass")
	off := layerMedians(tr, "record.pass.nologger")
	checks := layerMedians(tr, "record.check")
	o.layers["host.run_s"] = off["sgxperf.RunWorkload"]
	o.layers["host.transitions"] = float64(last.counts(1) + last.counts(2))
	o.layers["logger.events"] = evs
	o.layers["logger.ns_per_event"] = (self["sgxperf.RunWorkload"] - off["sgxperf.RunWorkload"]) / evs * 1e9
	o.layers["evstore.encode_s"] = self["evstore.SaveFile"]
	o.layers["evstore.bytes_per_event"] = float64(last.bytes) / evs
	o.layers["evstore.decode_s"] = checks["evstore.LoadFile"]
	chunks, err := chunksIn(last)
	if err != nil {
		return nil, err
	}
	o.layers["evstore.chunks_read"] = float64(chunks)
	checkAdds(o, tr, "record.pass", untraced, "evstore.ContentKey")
	return o, nil
}

// counts returns table i's row count summed over the pass's traces.
func (p *recordPass) counts(i int) int {
	n := 0
	for _, s := range p.saved {
		n += s.counts[i]
	}
	return n
}

// chunksIn counts the stored chunks a full reload of the pass's traces
// reads.
func chunksIn(p *recordPass) (int, error) {
	n := 0
	for _, s := range p.saved {
		c, err := chunkCount(s.path)
		if err != nil {
			return 0, err
		}
		n += c
	}
	return n, nil
}
