package main

// The serve workload: serve.New on a loopback listener, driven from this
// process by nproc client goroutines, one connection each. Reads
// (report, stats, lint) go to a few hot traces and are mostly served
// from the artifact cache; writes run beside them: appends to one write
// trace per client, each followed by the report that must include it (a
// tail refold), and uploads of new traces, which stay resident.
//
// The run has three parts: the base rate, open loop, for the latency
// figures; a sweep of higher fixed rates, open loop, for serve_max_rps;
// and a closed loop that keeps every connection busy, for the capacity.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/staticlint"
	"sgxperf/internal/serve"
)

// Serve generator parameters. The hot traces are sized like the
// sessions of sgx-perf-bench -exp serve (6000 to 10200 ops, 8000 in the
// middle) and an append like that experiment's delta (100 ecalls); the
// number of hot traces, the write trace and upload sizes and the request
// mix are this benchmark's own choices (README.md).
const (
	serveHotTraces = 3
	serveHotOps    = 8_000 // top-level ecalls per hot trace
	serveWriteOps  = 2_000 // per write trace before any append
	serveAppendOps = 100   // per append
	serveUploadOps = 400   // per uploaded trace
	serveUploads   = 4     // distinct upload bodies, reused
	// serveBaseRate is the offered rate, in requests per second, at
	// which the latency figures are reported: about an eighth of the
	// ~1.7k warm reports per second sgx-perf-bench -exp serve records,
	// so requests seldom queue.
	serveBaseRate = 200
	// serveWindow is the length of the windows serve_p50_ms takes the
	// median over.
	serveWindow = 500 * time.Millisecond
	// serveLimit is the p99 latency limit a rate must meet to count
	// towards serve_max_rps: above the ~30 ms median cold report the
	// same experiment records, so a rate fails when requests queue
	// behind more than one cold analysis.
	serveLimit = 50 * time.Millisecond
	// serveClosedPerSecond sizes the closed loop: it sends this many
	// requests per second of the run's length, the same number however
	// fast the server answers; at the 700-900 req/s two connections
	// reach on a 2-vCPU machine that is 8-11 s of a 25-s run.
	serveClosedPerSecond = 300
)

// serveSweep are the offered rates, as multiples of the base rate, tried
// after the base phase for serve_max_rps.
var serveSweep = []float64{2, 4}

// The request mix, in shares of 100.
var serveMix = []struct {
	op    string
	share int
}{
	{"report", 45}, {"stats", 25}, {"lint", 25}, {"append", 3}, {"upload", 2},
}

type serveOp struct {
	op    string
	trace int // hot trace index for reads
	body  int // upload body index
	due   time.Duration
}

// servePhase is one part of the run. A phase with rate 0 is the closed
// loop: each client sends its next request as soon as the last returns.
type servePhase struct {
	name string
	rate float64
	dur  time.Duration
	ops  []serveOp
}

// serveState is one booted server with its traces registered.
type serveState struct {
	srv    *http.Server
	done   chan struct{}
	url    string
	client *http.Client
	hot    []hotTrace
	// writes are the per-client write traces as first uploaded; deltas
	// are each client's append bodies in order.
	writes  [][]byte
	deltas  [][][]byte
	uploads [][]byte
}

type serveWorkload struct {
	cfg    config
	phases []servePhase
	st     *serveState
}

func encodeTrace(t *events.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// drawOps lays out n requests for nproc clients, spaced evenly at rate
// (all due at once for the closed loop). Request i goes to client
// i mod nproc, and each client gets each kind in exactly its share, in
// an order and with targets drawn from the seed, so every seed asks the
// same work of every client.
func drawOps(r *rng, n, nproc int, rate float64) []serveOp {
	per := n / nproc
	ops := make([]serveOp, per*nproc)
	for c := 0; c < nproc; c++ {
		kinds := make([]string, 0, per)
		for _, m := range serveMix {
			for k := 0; k < per*m.share/100; k++ {
				kinds = append(kinds, m.op)
			}
		}
		for len(kinds) < per {
			kinds = append(kinds, serveMix[0].op)
		}
		for i := len(kinds) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			kinds[i], kinds[j] = kinds[j], kinds[i]
		}
		for k, kind := range kinds {
			ops[k*nproc+c] = serveOp{op: kind, trace: r.intn(serveHotTraces), body: r.intn(serveUploads)}
		}
	}
	if rate > 0 {
		for i := range ops {
			ops[i].due = time.Duration(float64(i) / rate * float64(time.Second))
		}
	}
	return ops
}

// plan lays out the phases: half the run at the base rate, a fifth over
// the sweep, then the closed loop, which takes about the rest.
func (w *serveWorkload) plan() {
	r := rng(w.cfg.seed ^ 0x5e7e)
	base := w.cfg.seconds / 2
	step := w.cfg.seconds / 5 / time.Duration(len(serveSweep))
	w.phases = []servePhase{{name: "base", rate: serveBaseRate, dur: base}}
	for _, m := range serveSweep {
		w.phases = append(w.phases, servePhase{name: fmt.Sprintf("x%g", m), rate: serveBaseRate * m, dur: step})
	}
	w.phases = append(w.phases, servePhase{name: "closed"})
	for i := range w.phases {
		p := &w.phases[i]
		n := int(serveClosedPerSecond * w.cfg.seconds.Seconds())
		if p.rate > 0 {
			n = int(p.rate * p.dur.Seconds())
		}
		p.ops = drawOps(&r, n, w.cfg.nproc, p.rate)
	}
}

// appendsPerClient counts the appends the plan can send from each
// client (request i of a phase goes to client i mod nproc).
func (w *serveWorkload) appendsPerClient() []int {
	n := make([]int, w.cfg.nproc)
	for _, p := range w.phases {
		for i, op := range p.ops {
			if op.op == "append" {
				n[i%w.cfg.nproc]++
			}
		}
	}
	return n
}

// generate returns the first batch of a fresh generator and, encoded,
// more later batches of moreOps each.
func generate(seed uint64, ops, more, moreOps int) (*events.Trace, [][]byte, error) {
	g, err := newTraceGen(seed)
	if err != nil {
		return nil, nil, err
	}
	first, err := g.batch(ops)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, more)
	for i := range bodies {
		d, err := g.batch(moreOps)
		if err != nil {
			return nil, nil, err
		}
		if bodies[i], err = encodeTrace(d); err != nil {
			return nil, nil, err
		}
	}
	return first, bodies, nil
}

// hotTrace is one read-mostly trace with what its generator made.
type hotTrace struct {
	trace *events.Trace
	tally callTally
}

func generateHot(seed uint64) ([]hotTrace, error) {
	var hot []hotTrace
	for k := 0; k < serveHotTraces; k++ {
		g, err := newTraceGen(seed*1000 + uint64(k))
		if err != nil {
			return nil, err
		}
		t, err := g.batch(serveHotOps)
		if err != nil {
			return nil, err
		}
		hot = append(hot, hotTrace{trace: t, tally: g.tally})
	}
	return hot, nil
}

func (w *serveWorkload) setup() error {
	w.close()
	w.plan()
	st := &serveState{done: make(chan struct{})}
	var err error
	if st.hot, err = generateHot(w.cfg.seed); err != nil {
		return err
	}
	for c, appends := range w.appendsPerClient() {
		t, deltas, err := generate(w.cfg.seed*1000+100+uint64(c), serveWriteOps, appends, serveAppendOps)
		if err != nil {
			return err
		}
		b, err := encodeTrace(t)
		if err != nil {
			return err
		}
		st.writes = append(st.writes, b)
		st.deltas = append(st.deltas, deltas)
	}
	for u := 0; u < serveUploads; u++ {
		t, _, err := generate(w.cfg.seed*1000+200+uint64(u), serveUploadOps, 0, 0)
		if err != nil {
			return err
		}
		b, err := encodeTrace(t)
		if err != nil {
			return err
		}
		st.uploads = append(st.uploads, b)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = &http.Server{Handler: serve.New(serve.Options{}).Handler()}
	go func() {
		defer close(st.done)
		if err := st.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	st.url = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: w.cfg.nproc, MaxIdleConnsPerHost: w.cfg.nproc,
	}}
	w.st = st

	// Register every trace and compute each cold artifact once, so the
	// timed phase starts from a warm cache.
	for k, h := range st.hot {
		b, err := encodeTrace(h.trace)
		if err != nil {
			return err
		}
		if _, err := st.do("POST", fmt.Sprintf("/v1/traces?id=hot%d", k), b, http.StatusCreated); err != nil {
			return err
		}
		for _, ep := range []string{"report", "stats", "lint"} {
			if _, err := st.do("GET", fmt.Sprintf("/v1/traces/hot%d/%s", k, ep), nil, http.StatusOK); err != nil {
				return err
			}
		}
	}
	for c, b := range st.writes {
		if _, err := st.do("POST", fmt.Sprintf("/v1/traces?id=w%d", c), b, http.StatusCreated); err != nil {
			return err
		}
		if _, err := st.do("GET", fmt.Sprintf("/v1/traces/w%d/report", c), nil, http.StatusOK); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.st == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.st.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
		w.st.srv.Close()
	}
	<-w.st.done
	w.st.client.CloseIdleConnections()
	w.st = nil
}

// response is one answered request.
type response struct {
	body   []byte
	header http.Header
}

// do sends one request and checks the status.
func (st *serveState) do(method, path string, body []byte, want int) (*response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, st.url+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, raw)
	}
	return &response{body: raw, header: resp.Header}, nil
}

// sample is one completed request, times since its phase started.
type sample struct {
	op     string
	client int
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	// idle is set when the client was free at the due time, so any gap
	// between due and sent is the generator's own lateness.
	idle   bool
	traced bool
	err    error
	// windows are the Sgxperf-Windows-{Total,Computed,Reused} headers of
	// the report that followed an append.
	windows [3]int
}

func (s sample) latencyMS() float64 { return float64(s.done-s.due) / 1e6 }
func (s sample) serviceMS() float64 { return float64(s.done-s.sent) / 1e6 }

// client is what one load-generator goroutine owns: its share of the
// schedule, its write trace and the digests it was served. Appends to
// one write trace therefore never run concurrently.
type client struct {
	id       int
	appended int
	ecalls   int // ecalls the write trace holds after the last append
	served   map[string]map[[32]byte]bool
}

// runPhase drives one phase: request i goes to client i mod nproc, which
// sends it when due or, if still busy, as soon as it is free; latency
// counts from the due time. When traced, every other request is traced,
// so the untraced half gives the tracing overhead. It also returns the
// share of the machine's busy CPU time stolen in each serveWindow of the
// phase.
func (w *serveWorkload) runPhase(tr *tracer, p servePhase, clients []*client) ([]sample, []float64) {
	out := make([][]sample, len(clients))
	done := make(chan struct{})
	stop, stolen := make(chan struct{}), make(chan []float64)
	go func() {
		var shares []float64
		tick := time.NewTicker(serveWindow)
		defer tick.Stop()
		for c0 := readCPUStat(); ; c0 = readCPUStat() {
			select {
			case <-tick.C:
				shares = append(shares, stolenShare(c0))
			case <-stop:
				stolen <- append(shares, stolenShare(c0))
				return
			}
		}
	}()
	start := time.Now()
	for c := range clients {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			cl := clients[c]
			for i := c; i < len(p.ops); i += len(clients) {
				op := p.ops[i]
				now := time.Since(start)
				if p.rate == 0 {
					op.due = now
				}
				idle := now <= op.due
				if wait := op.due - now; wait > 0 {
					time.Sleep(wait)
				}
				ptr := tr
				if (i/len(clients))%2 == 1 {
					ptr = nil
				}
				s := sample{op: op.op, client: c, due: op.due, sent: time.Since(start), idle: idle, traced: ptr != nil}
				s.err = w.send(ptr, op, cl, &s)
				s.done = time.Since(start)
				out[c] = append(out[c], s)
			}
		}(c)
	}
	for range clients {
		<-done
	}
	close(stop)
	shares := <-stolen
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all, shares
}

// exchange is one HTTP exchange with the server, traced as the
// endpoint's span.
func (w *serveWorkload) exchange(tr *tracer, root int, endpoint, method, path string, body []byte, want int) (*response, error) {
	var resp *response
	err := tr.call(root, "serve."+endpoint, func() (err error) {
		resp, err = w.st.do(method, path, body, want)
		return err
	})
	return resp, err
}

func (w *serveWorkload) send(tr *tracer, op serveOp, cl *client, s *sample) error {
	root := tr.begin(0, "serve.request")
	defer tr.end(root)
	st := w.st
	switch op.op {
	case "report", "stats", "lint":
		path := fmt.Sprintf("/v1/traces/hot%d/%s", op.trace, op.op)
		resp, err := w.exchange(tr, root, op.op, "GET", path, nil, http.StatusOK)
		if err != nil {
			return err
		}
		if op.op != "stats" {
			key := fmt.Sprintf("%s hot%d", op.op, op.trace)
			if cl.served[key] == nil {
				cl.served[key] = make(map[[32]byte]bool)
			}
			cl.served[key][sha256.Sum256(resp.body)] = true
		}
		return nil
	case "upload":
		_, err := w.exchange(tr, root, "upload", "POST", "/v1/traces", st.uploads[op.body], http.StatusCreated)
		return err
	case "append":
		if cl.appended >= len(st.deltas[cl.id]) {
			return errors.New("append schedule exceeded the generated deltas")
		}
		path := fmt.Sprintf("/v1/traces/w%d", cl.id)
		if _, err := w.exchange(tr, root, "append", "POST", path+"/append", st.deltas[cl.id][cl.appended], http.StatusOK); err != nil {
			return err
		}
		cl.appended++
		cl.ecalls += serveAppendOps
		resp, err := w.exchange(tr, root, "report", "GET", path+"/report", nil, http.StatusOK)
		if err != nil {
			return err
		}
		s.windows = windowHeaders(resp.header)
		// The report must include the append: every ecall is counted.
		var rep apiv1.Report
		if err := json.Unmarshal(resp.body, &rep); err != nil {
			return fmt.Errorf("report after append: %w", err)
		}
		n := 0
		for _, cs := range rep.Stats {
			if cs.Kind == "ecall" {
				n += cs.Count
			}
		}
		if n != cl.ecalls {
			return fmt.Errorf("report after append counts %d ecalls, the trace holds %d", n, cl.ecalls)
		}
		return nil
	}
	return fmt.Errorf("unknown op %q", op.op)
}

func windowHeaders(h http.Header) [3]int {
	var out [3]int
	for i, k := range []string{"Sgxperf-Windows-Total", "Sgxperf-Windows-Computed", "Sgxperf-Windows-Reused"} {
		out[i], _ = strconv.Atoi(h.Get(k))
	}
	return out
}

// offlineDocs computes what sgx-perf-analyze -json and sgx-perf-lint
// -json print for the trace.
func offlineDocs(t *events.Trace) (report, lint []byte, err error) {
	a, err := analyzer.New(t, analyzer.Options{})
	if err != nil {
		return nil, nil, err
	}
	if report, err = apiv1.Marshal(apiv1.FromReport(a.Analyze())); err != nil {
		return nil, nil, err
	}
	lr, err := staticlint.Hybrid(nil, t, staticlint.Options{})
	if err != nil {
		return nil, nil, err
	}
	lint, err = apiv1.Marshal(apiv1.FromLintReport(lr))
	return report, lint, err
}

// offlineHot computes the offline documents of every hot trace, checks
// each report against its generator, and returns the documents, report
// and lint for each trace, with their digest.
func offlineHot(hot []hotTrace) ([][2][]byte, string, error) {
	var docs [][2][]byte
	var all [][]byte
	for k, h := range hot {
		report, lint, err := offlineDocs(h.trace)
		if err != nil {
			return nil, "", err
		}
		if err := checkStats(report, h.tally); err != nil {
			return nil, "", fmt.Errorf("offline report of hot%d: %w", k, err)
		}
		docs = append(docs, [2][]byte{report, lint})
		all = append(all, report, lint)
	}
	return docs, shortDigest(all...), nil
}

func (w *serveWorkload) metrics() (*apiv1.ServerMetrics, error) {
	resp, err := w.st.do("GET", "/v1/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var m apiv1.ServerMetrics
	if err := json.Unmarshal(resp.body, &m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &m, nil
}

// phaseResult is one phase's figures.
type phaseResult struct {
	p        servePhase
	samples  []sample
	stolen   []float64 // per serveWindow
	p50, p99 float64
	ok       bool
	elapsed  time.Duration
}

func (w *serveWorkload) run(tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	clients := make([]*client, w.cfg.nproc)
	for c := range clients {
		clients[c] = &client{id: c, ecalls: serveWriteOps, served: make(map[string]map[[32]byte]bool)}
	}
	before, err := w.metrics()
	if err != nil {
		return nil, err
	}

	// The heap is watched over the fixed-rate phases. The server keeps
	// what it is sent, so the live heap is the figure: the garbage
	// between collections depends on when the collector happens to run.
	heap := startHeapPeak(heapLive)
	var peak float64
	var results []phaseResult
	for i, p := range w.phases {
		if p.rate == 0 {
			peak = heap.finish()
		}
		// Only the base phase is traced: the per-layer figures describe
		// the rate the latency figures are reported at.
		ptr := tr
		if i > 0 {
			ptr = nil
		}
		start := time.Now()
		samples, stolen := w.runPhase(ptr, p, clients)
		res := phaseResult{p: p, samples: samples, stolen: stolen, elapsed: time.Since(start)}
		var lat []float64
		failed := 0
		for _, s := range samples {
			o.attempted++
			if s.err != nil {
				o.failf("%s: %v", s.op, s.err)
				failed++
				continue
			}
			lat = append(lat, s.latencyMS())
		}
		res.p50, res.p99 = percentile(lat, 50), percentile(lat, 99)
		// A failed request misses the limit; a growing backlog shows as
		// a p99 over it.
		res.ok = failed == 0 && res.p99 <= float64(serveLimit)/1e6
		results = append(results, res)
		if p.rate > 0 {
			o.printf("serve: %s: %.0f req/s offered for %v, %d requests, p50 %.3f ms, p99 %.3f ms, p99 under %v: %v",
				p.name, p.rate, p.dur, len(samples), res.p50, res.p99, serveLimit, res.ok)
		} else {
			o.printf("serve: closed loop over %d connections: %d requests in %v",
				len(clients), len(samples), res.elapsed.Round(time.Millisecond))
		}
	}
	after, err := w.metrics()
	if err != nil {
		return nil, err
	}
	if err := w.gate(o, clients); err != nil {
		return nil, err
	}

	base, closed := results[0], results[len(results)-1]
	maxRPS := 0.0
	for _, res := range results[:len(results)-1] {
		if res.ok {
			maxRPS = max(maxRPS, res.p.rate)
		}
	}
	var appendLat []float64
	var win [3]int
	for _, s := range base.samples {
		if s.op == "append" && s.err == nil {
			appendLat = append(appendLat, s.serviceMS())
			for i := range win {
				win[i] += s.windows[i]
			}
		}
	}
	capacity, capStolen := closedRate(closed.samples, len(clients), serveWindow, closed.stolen)
	p50, used, windows := windowedP50(base.samples, serveWindow, base.stolen)
	o.printf("serve_p50_ms %.3f (median of the p50s of the %d least-stolen of %d windows of %v; p50 %.3f over all %d samples), serve_p99_ms %.3f (%.0f req/s offered, timed from when each was due)",
		p50, used, windows, serveWindow, base.p50, len(base.samples), base.p99, base.p.rate)
	o.printf("serve_max_rps %.0f (highest offered rate with p99 under %v; 0 when none)", maxRPS, serveLimit)
	o.printf("append_to_report_ms %.3f (median of %d appends at the base rate)", median(appendLat), len(appendLat))
	o.printf("serve capacity %.1f req/s (closed loop, %d connections, while every one was busy; %.1f%% of the busy time stolen taken out)",
		capacity, len(clients), 100*capStolen)
	o.printf("peak_heap_mb %.2f (highest live heap over the fixed-rate phases; server and load generator share the process)", peak)
	o.e2e["latency_ms"] = p50
	o.e2e["throughput_per_s"] = capacity
	o.e2e["peak_heap_mb"] = peak
	if tr == nil {
		return o, nil
	}

	// Per-endpoint figures come from the spans of the traced requests
	// (an exchange, not the queueing before it).
	exchanges := make(map[string][]float64)
	self := tr.selfByRoot()
	for _, root := range tr.rootsNamed("serve.request") {
		for name, v := range self[root.ID] {
			if name != "serve.request" {
				exchanges[name] = append(exchanges[name], v*1e3)
			}
		}
	}
	for _, ep := range []string{"upload", "append", "report", "stats", "lint"} {
		o.layers["serve."+ep+".p50_ms"] = percentile(exchanges["serve."+ep], 50)
		o.layers["serve."+ep+".p99_ms"] = percentile(exchanges["serve."+ep], 99)
	}
	var untracedSvc, lags []float64
	for _, s := range base.samples {
		if s.err != nil {
			continue
		}
		if !s.traced {
			untracedSvc = append(untracedSvc, s.serviceMS()/1e3)
		}
		if s.idle {
			lags = append(lags, float64(s.sent-s.due)/1e6)
		}
	}
	o.layers["serve.p99_ms"] = base.p99
	o.layers["serve.max_rps"] = maxRPS
	o.layers["serve.append_to_report_ms"] = median(appendLat)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	o.layers["serve.cache.hits"] = float64(hits)
	o.layers["serve.cache.misses"] = float64(misses)
	if hits+misses > 0 {
		o.layers["serve.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	o.layers["serve.windows.total"] = float64(win[0])
	o.layers["serve.windows.computed"] = float64(win[1])
	if win[0] > 0 {
		o.layers["serve.windows.reused_ratio"] = float64(win[2]) / float64(win[0])
	}
	o.layers["serve.heap_bytes"] = float64(after.Memory.PeakHeapAllocBytes)
	o.layers["serve.generator_lag_ms"] = percentile(lags, 99)
	o.layers["serve.inflight_max"] = float64(inflightMax(base.samples))
	o.printf("serve: cache %d hits of %d lookups; post-append report windows %d total, %d computed, %d reused",
		hits, hits+misses, win[0], win[1], win[2])
	checkAdds(o, tr, "serve.request", untracedSvc)
	return o, nil
}

// windowedP50 splits the samples into windows of d by due time, given
// the stolen share of each, and returns the median of the median
// latencies of the least-stolen half of the windows, with how many that
// is of how many. Nothing is taken out: the median request of a window
// is seldom one that a burst of steal delayed, and taking the window's
// whole stolen share out of it would undercount it.
func windowedP50(samples []sample, d time.Duration, stolen []float64) (float64, int, int) {
	var byWindow [][]float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		k := int(s.due / d)
		for len(byWindow) <= k {
			byWindow = append(byWindow, nil)
		}
		byWindow[k] = append(byWindow[k], s.latencyMS())
	}
	var p50s, windowStolen []float64
	for k, lat := range byWindow {
		if len(lat) == 0 {
			continue
		}
		p50s = append(p50s, percentile(lat, 50))
		windowStolen = append(windowStolen, stolen[min(k, len(stolen)-1)])
	}
	p50, n := leastStolenMedian(p50s, windowStolen)
	return p50, n, len(p50s)
}

// closedRate is the closed loop's completion rate while every client
// was still busy: requests answered before the first client ran out,
// per second of that span, so a straggler's tail does not count. Steal
// is taken out as from every rate (measure.go), with the span's stolen
// share the mean of the shares of the windows of d it covers; that
// share is returned too.
func closedRate(samples []sample, clients int, d time.Duration, stolen []float64) (float64, float64) {
	last := make([]time.Duration, clients)
	for _, s := range samples {
		last[s.client] = max(last[s.client], s.done)
	}
	first := last[0]
	for _, t := range last {
		first = min(first, t)
	}
	n := 0
	for _, s := range samples {
		if s.done <= first {
			n++
		}
	}
	share := 0.0
	covered := stolen[:min(len(stolen), int((first+d-1)/d))]
	for _, x := range covered {
		share += x / float64(len(covered))
	}
	return float64(n) / first.Seconds() / (1 - min(share, maxStolen)), share
}

// inflightMax is the most requests that were due but not yet answered
// at any one time.
func inflightMax(samples []sample) int {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, s := range samples {
		edges = append(edges, edge{s.due, 1}, edge{s.done, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, most := 0, 0
	for _, e := range edges {
		cur += e.delta
		most = max(most, cur)
	}
	return most
}

// gate checks the served documents against the offline ones for the
// same trace state: every report and lint document served for a hot
// trace, and each write trace's final report after all its appends. The
// offline documents of the hot traces are themselves checked against
// the generator's counts and the digest pinned for the seed.
func (w *serveWorkload) gate(o *outcome, clients []*client) error {
	st := w.st
	o.attempted++
	docs, digest, err := offlineHot(st.hot)
	if err != nil {
		o.failf("%v", err)
		return nil
	}
	checkPinned(o, "hot-trace report and lint documents", pinnedServe, w.cfg.seed, digest)
	for k, d := range docs {
		for ep, doc := range map[string][]byte{"report": d[0], "lint": d[1]} {
			want := sha256.Sum256(doc)
			for _, cl := range clients {
				for got := range cl.served[fmt.Sprintf("%s hot%d", ep, k)] {
					if got != want {
						o.failf("%s of hot%d: served document differs from the offline one", ep, k)
					}
				}
			}
		}
	}
	for c, cl := range clients {
		o.attempted++
		local, err := events.NewTrace()
		if err != nil {
			return err
		}
		bodies := append([][]byte{st.writes[c]}, st.deltas[c][:cl.appended]...)
		for _, body := range bodies {
			d, err := events.NewTrace()
			if err != nil {
				return err
			}
			if err := d.Load(bytes.NewReader(body)); err != nil {
				return err
			}
			appendLocal(local, d)
		}
		report, _, err := offlineDocs(local)
		if err != nil {
			return err
		}
		resp, err := st.do("GET", fmt.Sprintf("/v1/traces/w%d/report", c), nil, http.StatusOK)
		if err != nil {
			o.failf("final report of w%d: %v", c, err)
		} else if !bytes.Equal(resp.body, report) {
			o.failf("final report of w%d (%d appends): served document differs from the offline one", c, cl.appended)
		}
	}
	return nil
}

// appendLocal lands an uploaded or appended body on a local trace the
// way the server does: event tables wholesale, the header only once.
func appendLocal(base, delta *events.Trace) {
	if base.Meta.Len() == 0 {
		base.Meta.BatchInsert(delta.Meta.Rows())
		base.Enclaves.BatchInsert(delta.Enclaves.Rows())
		base.Threads.BatchInsert(delta.Threads.Rows())
	}
	base.Ecalls.BatchInsert(delta.Ecalls.Rows())
	base.Ocalls.BatchInsert(delta.Ocalls.Rows())
	base.Paging.BatchInsert(delta.Paging.Rows())
	base.Syncs.BatchInsert(delta.Syncs.Rows())
}
