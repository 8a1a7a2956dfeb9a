// Package analyzer implements the sgx-perf analyser (§4.3): general
// statistics, histograms and scatter series, call graphs with direct and
// indirect parents (Fig. 4), detectors for the five SGX performance
// anti-patterns of Table 1 (SISC, SDSC, SNC, SSC, paging) using the
// paper's weighted-ratio rules (Equations 1–3), and enclave-interface
// security hints (§3.6, §4.3.2).
//
// One engine computes every report: the streaming fold (fold.go) over
// time-ordered chunks. Analyzer.Analyze runs it over a resident trace's
// own tables, AnalyzeStream over a saved file read chunk by chunk, and
// the serve daemon window by window; all three give the same report for
// the same events.
package analyzer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// ErrNoTrace reports that an analysis was requested without a trace —
// typically a logger that was never attached or was detached before its
// trace was taken. Test with errors.Is.
var ErrNoTrace = errors.New("no trace to analyze")

// Weights holds every configurable threshold of the detectors, with the
// paper's published defaults.
type Weights struct {
	// Moving/duplication (Equation 1): flag a call when ≥Move1 of its
	// executions are shorter than 1µs, or ≥Move5 shorter than 5µs, or
	// ≥Move10 shorter than 10µs.
	Move1, Move5, Move10 float64

	// Reordering (Equation 2): weighted share of calls issued in the
	// first/last 10µs (weight ReorderW10) and 10–20µs band (ReorderW20)
	// of their direct parent must reach ReorderThreshold.
	ReorderW10, ReorderW20, ReorderThreshold float64

	// Merging/batching (Equation 3): a pair is considered when the parent
	// is the call's indirect parent in at least MergeMinPairFrac of its
	// executions (λ); gap-band weights (α, β, γ, δ) and the threshold ε.
	MergeMinPairFrac                     float64
	MergeW1, MergeW5, MergeW10, MergeW20 float64
	MergeThreshold                       float64

	// SSC: minimum number of sync ocalls before the detector fires, and
	// the duration below which a wake ocall counts as short.
	SyncMinOcalls  int
	SyncShortLimit time.Duration

	// Paging: minimum number of paging events before the detector fires.
	PagingMinEvents int
}

// DefaultWeights returns the defaults from §4.3.2 (obtained by the authors
// through experimentation).
func DefaultWeights() Weights {
	return Weights{
		Move1:  0.35,
		Move5:  0.50,
		Move10: 0.65,

		ReorderW10:       1.00,
		ReorderW20:       0.75,
		ReorderThreshold: 0.50,

		MergeMinPairFrac: 0.35,
		MergeW1:          1.00,
		MergeW5:          0.75,
		MergeW10:         0.50,
		MergeW20:         0.35,
		MergeThreshold:   0.35,

		SyncMinOcalls:  10,
		SyncShortLimit: 10 * time.Microsecond,

		PagingMinEvents: 1,
	}
}

// Options configures an analysis run.
type Options struct {
	Weights Weights
	// Interface supplies the enclave's EDL explicitly. When nil, the
	// analyser parses the EDL embedded in the trace, if any; with no EDL
	// at all it reports the smallest observed allow-sets (§4.3.2).
	Interface *edl.Interface
	// Enclave restricts the analysis to one enclave's events (0 = all).
	// Traces from multi-enclave applications — SecureKeeper spawns one
	// enclave per client (§5.2.4) — can be dissected per enclave.
	Enclave sgx.EnclaveID
}

// Analyzer computes a Report from a resident trace. It reads the trace
// when asked, not when built: Analyze folds the tables as they are at
// the call. The per-name queries (Stats, AllStats, WakeGraph and their
// CSV forms) read a report computed on first use; the per-call queries
// (Histogram, Scatter, IndirectParentOf, CallNames) read a per-call
// index built on first use. Both are memoised for the Analyzer's life.
type Analyzer struct {
	trace *events.Trace
	opts  Options
	iface *edl.Interface

	reportOnce sync.Once
	report     *Report

	indexOnce sync.Once
	index     *callIndex
}

// New returns an analyser over the trace. A nil trace returns an error
// wrapping ErrNoTrace.
func New(trace *events.Trace, opts Options) (*Analyzer, error) {
	if trace == nil {
		return nil, fmt.Errorf("analyzer: %w", ErrNoTrace)
	}
	if opts.Weights == (Weights{}) {
		opts.Weights = DefaultWeights()
	}
	a := &Analyzer{trace: trace, opts: opts, iface: opts.Interface}
	if a.iface == nil {
		a.iface = interfaceFromTrace(trace)
	}
	return a, nil
}

// interfaceFromTrace recovers the EDL the logger embedded, if any.
func interfaceFromTrace(trace *events.Trace) *edl.Interface {
	var metas []events.EnclaveMeta
	trace.Enclaves.Scan(func(_ int, meta events.EnclaveMeta) bool {
		metas = append(metas, meta)
		return true
	})
	return interfaceFromMetas(metas)
}

// Interface returns the EDL interface in use (explicit or recovered), or
// nil.
func (a *Analyzer) Interface() *edl.Interface { return a.iface }

// Analyze produces the full report.
func (a *Analyzer) Analyze() *Report {
	r, _ := a.AnalyzeContext(context.Background())
	return r
}

// AnalyzeContext is Analyze with cooperative cancellation: the fold
// checks ctx before each chunk it reads and, once ctx is done, the call
// returns ctx.Err() with a nil report. An uncancelled AnalyzeContext
// produces exactly Analyze's report.
//
// The fold reads the trace's own chunks when its ecall, ocall and
// paging tables are already stream-sorted (one O(n) check); otherwise it
// sorts a private copy. The caller's trace is never reordered: its
// ContentKey and insert subscribers depend on its order.
func (a *Analyzer) AnalyzeContext(ctx context.Context) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	src := NewTraceSource(a.trace)
	src.Ecalls = streamSorted(a.trace.Ecalls, callKeyOf)
	src.Ocalls = streamSorted(a.trace.Ocalls, callKeyOf)
	src.Paging = streamSorted(a.trace.Paging, pagingKeyOf)
	return analyzeSource(ctx, src, a.opts, a.iface)
}

// memo returns the report the per-name queries read, computing it on
// first use.
func (a *Analyzer) memo() *Report {
	a.reportOnce.Do(func() { a.report = a.Analyze() })
	return a.report
}

// foldChunkRows is the chunk size of a sorted private copy: the fold
// checks for cancellation between chunks.
const foldChunkRows = 1024

// chunkList is a ChunkSeq over chunks already in memory.
type chunkList[T any] [][]T

func (l chunkList[T]) NumChunks() int           { return len(l) }
func (l chunkList[T]) Chunk(i int) ([]T, error) { return l[i], nil }

// streamSorted returns a table's rows as a fold feed in key order. It
// snapshots the table's chunks once, so the check and the fold see the
// same rows even while a recorder appends. Already-sorted chunks are
// fed as they are; otherwise the rows are copied in stable key order.
func streamSorted[T any](t *evstore.Table[T], key func(*T) callKey) ChunkSeq[T] {
	var chunks [][]T
	n := 0
	sorted := true
	var last callKey
	t.ScanChunks(func(rows []T) bool {
		rows = rows[:len(rows):len(rows)]
		for i := 0; sorted && i < len(rows); i++ {
			k := key(&rows[i])
			if n+i > 0 && k.less(last) {
				sorted = false
			}
			last = k
		}
		chunks = append(chunks, rows)
		n += len(rows)
		return true
	})
	if sorted {
		return chunkList[T](chunks)
	}
	// Sort (key, position) pairs, position breaking ties so the order is
	// stable, then gather the rows.
	type keyed struct {
		k   callKey
		pos int
		row *T
	}
	keys := make([]keyed, 0, n)
	for _, c := range chunks {
		for i := range c {
			keys = append(keys, keyed{key(&c[i]), len(keys), &c[i]})
		}
	}
	slices.SortFunc(keys, func(x, y keyed) int {
		switch {
		case x.k.less(y.k):
			return -1
		case y.k.less(x.k):
			return 1
		}
		return x.pos - y.pos
	})
	all := make([]T, n)
	for i := range keys {
		all[i] = *keys[i].row
	}
	out := make(chunkList[T], 0, (n+foldChunkRows-1)/foldChunkRows)
	for len(all) > 0 {
		m := min(len(all), foldChunkRows)
		out = append(out, all[:m:m])
		all = all[m:]
	}
	return out
}

// callIndex is the per-call view behind the Fig. 4, 7 and 8 queries:
// every in-filter call in fold order, grouped by name, with the
// indirect parent the fold's parent rule assigns it.
type callIndex struct {
	byName   map[string][]indexedCall
	names    []string
	indirect map[events.EventID]events.EventID
	// t0 is the first in-filter call's start.
	t0 vtime.Cycles
}

type indexedCall struct {
	start    vtime.Cycles
	adjusted time.Duration
}

// calls returns the per-call index, building it on first use by
// replaying the fold's visiting order and parent rule over the sorted
// ecalls and ocalls.
func (a *Analyzer) calls() *callIndex {
	a.indexOnce.Do(func() {
		idx := &callIndex{
			byName:   make(map[string][]indexedCall),
			indirect: make(map[events.EventID]events.EventID),
		}
		freq, transition := a.trace.Frequency(), a.trace.TransitionCycles()
		ctx := context.Background()
		ec := newSeqCursor(ctx, streamSorted(a.trace.Ecalls, callKeyOf), foldPos{})
		oc := newSeqCursor(ctx, streamSorted(a.trace.Ocalls, callKeyOf), foldPos{})
		carry := NewFoldCarry()
		first := true
		for {
			// Resident chunks never fail to load.
			call, from, _ := nextCall(ec, oc)
			if call == nil {
				break
			}
			from.pop()
			if a.opts.Enclave != 0 && call.Enclave != a.opts.Enclave {
				continue
			}
			if first {
				idx.t0, first = call.Start, false
			}
			if _, ok := idx.byName[call.Name]; !ok {
				idx.names = append(idx.names, call.Name)
			}
			idx.byName[call.Name] = append(idx.byName[call.Name],
				indexedCall{start: call.Start, adjusted: adjustedDuration(freq, transition, call)})
			if _, _, prev, ok := carry.admit(call); ok {
				idx.indirect[call.ID] = prev.id
			}
		}
		sort.Strings(idx.names)
		a.index = idx
	})
	return a.index
}

// IndirectParentOf returns the event ID of a call's indirect parent
// (Fig. 4), or (NoEvent, false) when it has none.
func (a *Analyzer) IndirectParentOf(id events.EventID) (events.EventID, bool) {
	p, ok := a.calls().indirect[id]
	if !ok {
		return events.NoEvent, false
	}
	return p, true
}

// CallNames returns every distinct call name in the trace, sorted.
func (a *Analyzer) CallNames() []string {
	return slices.Clone(a.calls().names)
}

func (a *Analyzer) workload() string {
	if a.trace.Meta.Len() > 0 {
		return a.trace.Meta.At(0).Workload
	}
	return ""
}

// micros is a readability helper.
func micros(n int) time.Duration { return time.Duration(n) * time.Microsecond }
