package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p ≤ 100) by the
// nearest-rank rule, so a reported p99 is a latency some request
// actually saw.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// stolenShare is the share of the machine's busy CPU time since c0 that
// the hypervisor gave to other guests: steal over steal plus the time
// the CPUs ran anything. 0 where /proc/stat is unavailable or no clock
// tick has passed.
func stolenShare(c0 cpuStat) float64 {
	c1 := readCPUStat()
	busy := (c1.total - c1.idle) - (c0.total - c0.idle)
	if c1.total <= c0.total || busy == 0 {
		return 0
	}
	return float64(c1.steal-c0.steal) / float64(busy)
}

// On a shared virtual machine other guests take CPU time (steal), and a
// sample taken meanwhile is slower by about the share of its CPU time
// they took. Every sample therefore records its stolen share, and a
// figure is the median, over the least-stolen half of the samples
// (rounded up), of each sample with its stolen share taken out: a time
// t reads t·(1−s), a rate r reads r/(1−s). Taking the share out keeps
// the figures of runs seconds or minutes apart comparable while steal
// comes and goes; keeping to the least-stolen half limits how much any
// figure rests on that adjustment.

// unstolenTime is the figure of the time samples xs with stolen shares
// stolen, and how many samples it is the median of.
func unstolenTime(xs, stolen []float64) (float64, int) {
	idx := leastStolen(stolen)
	adj := make([]float64, len(idx))
	for i, k := range idx {
		adj[i] = xs[k] * (1 - stolen[k])
	}
	return median(adj), len(idx)
}

// unstolenRate is the figure of the rate samples xs with stolen shares
// stolen, and how many samples it is the median of.
func unstolenRate(xs, stolen []float64) (float64, int) {
	idx := leastStolen(stolen)
	adj := make([]float64, len(idx))
	for i, k := range idx {
		adj[i] = xs[k] / (1 - min(stolen[k], maxStolen))
	}
	return median(adj), len(idx)
}

// leastStolenMedian is the plain median of the samples xs over their
// least-stolen half, with nothing taken out, and how many samples that
// is.
func leastStolenMedian(xs, stolen []float64) (float64, int) {
	idx := leastStolen(stolen)
	sel := make([]float64, len(idx))
	for i, k := range idx {
		sel[i] = xs[k]
	}
	return median(sel), len(idx)
}

// maxStolen caps the share a rate is adjusted by, so a sample the
// hypervisor took whole cannot divide by zero.
const maxStolen = 0.9

// leastStolen returns the indices of the half of the samples (rounded
// up) with the smallest stolen shares.
func leastStolen(stolen []float64) []int {
	idx := make([]int, len(stolen))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return stolen[idx[a]] < stolen[idx[b]] })
	return idx[:(len(idx)+1)/2]
}

// Heap readings, both taken without stopping the world.
const (
	// heapInUse is the bytes held by live and not-yet-swept heap objects
	// (MemStats.HeapAlloc).
	heapInUse = "/memory/classes/heap/objects:bytes"
	// heapLive is the heap the last garbage collection found live; it
	// leaves out the garbage that piles up between collections.
	heapLive = "/gc/heap/live:bytes"
)

func readHeap(metric string) uint64 {
	s := []metrics.Sample{{Name: metric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples a heap reading every millisecond while a phase runs
// and keeps the highest.
type heapPeak struct {
	metric string
	mu     sync.Mutex
	peak   uint64
	stop   chan struct{}
	done   chan struct{}
}

func startHeapPeak(metric string) *heapPeak {
	h := &heapPeak{metric: metric, peak: readHeap(metric), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.note()
			}
		}
	}()
	return h
}

func (h *heapPeak) note() {
	v := readHeap(h.metric)
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// finish stops sampling and returns the peak in MB (10^6 bytes).
func (h *heapPeak) finish() float64 {
	h.note()
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / 1e6
}

// span is one traced call from the benchmark into a layer of the
// program. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths
// are the same with tracing on and off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span named name under parent.
func (t *tracer) call(parent int, name string, fn func() error) error {
	id := t.begin(parent, name)
	err := fn()
	t.end(id)
	return err
}

// add records a span that has already ended and returns its ID.
func (t *tracer) add(parent int, name string, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(t.spans)
}

// adopt appends spans recorded by another process, re-rooting them
// under parent and shifting them to start at offset.
func (t *tracer) adopt(parent int, offset int64, child []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Start += offset
		s.End += offset
		t.spans = append(t.spans, s)
	}
}

// offset returns the nanoseconds since the tracer started.
func (t *tracer) offset() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Nanoseconds()
}

// selfByRoot returns, for each root span (one pass or one request),
// the self time in seconds of every span name in its subtree: a span's
// duration minus the part of it its children cover. Children of one
// span run one after another here, so their durations add without
// overlap.
func (t *tracer) selfByRoot() map[int]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	// Spans are appended in start order, so a parent precedes its
	// children and one forward sweep finds every span's root.
	root := make(map[int]int, len(t.spans))
	out := make(map[int]map[string]float64)
	for _, s := range t.spans {
		r := s.ID
		if s.Parent != 0 {
			r = root[s.Parent]
		}
		root[s.ID] = r
		if out[r] == nil {
			out[r] = make(map[string]float64)
		}
		out[r][s.Name] += float64(s.End-s.Start-covered[s.ID]) / 1e9
	}
	return out
}

// rootsNamed returns the root spans with the given name, in start order.
func (t *tracer) rootsNamed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// layerMedians returns, for the root spans named root, the median over
// those roots of each span name's self time in seconds (0 where a root
// lacks the name).
func layerMedians(t *tracer, root string) map[string]float64 {
	byRoot := t.selfByRoot()
	roots := t.rootsNamed(root)
	names := make(map[string]bool)
	for _, r := range roots {
		for n := range byRoot[r.ID] {
			names[n] = true
		}
	}
	out := make(map[string]float64, len(names))
	for n := range names {
		xs := make([]float64, len(roots))
		for i, r := range roots {
			xs[i] = byRoot[r.ID][n]
		}
		out[n] = median(xs)
	}
	return out
}

// checkAdds is the traced run's accounting check. The self times along
// the blocking steps of a traced pass (its child spans, which run one
// after another) must cover the pass, leaving at most maxUncovered of it
// to the benchmark's own code; the pass then adds up to the untraced
// figure within the tracing overhead, which is reported as
// trace.overhead_ms (traced pass minus untraced pass, medians). Spans
// named in untimed are checks the untraced figure leaves out, so the
// traced pass leaves them out too.
func checkAdds(o *outcome, t *tracer, root string, untraced []float64, untimed ...string) {
	byRoot := t.selfByRoot()
	var traced, covered []float64
	for _, r := range t.rootsNamed(root) {
		d := float64(r.End-r.Start) / 1e9
		covered = append(covered, 1-byRoot[r.ID][root]/d)
		for _, n := range untimed {
			d -= byRoot[r.ID][n]
		}
		traced = append(traced, d)
	}
	overhead := median(traced) - median(untraced)
	// A workload that traces more than one kind of pass reports the
	// overheads summed.
	o.layers["trace.overhead_ms"] += overhead * 1e3
	cov := median(covered)
	o.attempted++
	o.printf("trace: %s: layer spans cover %.1f%% of a traced pass (median of %d); traced %.4f s, untraced %.4f s (%d), overhead %.4f s",
		root, 100*cov, len(covered), median(traced), median(untraced), len(untraced), overhead)
	if cov < 1-maxUncovered {
		o.failf("%s: the layer spans cover only %.1f%% of a traced pass", root, 100*cov)
	}
}

// maxUncovered is the share of a traced pass the layer spans may leave
// to the benchmark's own code.
const maxUncovered = 0.1
