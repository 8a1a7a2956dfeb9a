package analyzer

// The brute-force oracle: the analyser written as direct scans over one
// fully materialised, sorted call list — no fold, no carry, no
// histograms. Every report the fold produces is checked against it
// (reflect.DeepEqual). It shares only the rendering kernels
// (StatsFromDurations, MovingFinding, ReorderFindings, MergeFindings,
// SSCFindings, PagingFindings, WakeEdges, the hint renderers and the
// sorts), so it cross-checks the fold's visiting order, parent rule,
// aggregation and the histogram statistics.
//
// The parent rule, stated directly over the sorted list (see fold.go):
// a Parent link counts only while the parent is open at the child's
// start; a parent P closes at the first call visited after it that
// starts after P's End, and an indirect-parent chain under P does not
// survive that point. Event IDs are assumed unique, as the recorder
// assigns them.

import (
	"sort"
	"testing"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/events"
)

type oracleCall struct {
	ev events.CallEvent
	// adjusted is the execution time (ecalls: transition subtracted).
	adjusted time.Duration
	// parent and indirect index the direct and indirect parent in
	// oracle.all, or are -1.
	parent, indirect int
	gap              time.Duration
}

type oracle struct {
	trace  *events.Trace
	opts   Options
	iface  *edl.Interface
	all    []oracleCall
	byName map[string][]int
	names  []string
}

func newOracle(trace *events.Trace, opts Options) *oracle {
	if opts.Weights == (Weights{}) {
		opts.Weights = DefaultWeights()
	}
	o := &oracle{trace: trace, opts: opts, iface: opts.Interface, byName: make(map[string][]int)}
	if o.iface == nil {
		o.iface = interfaceFromTrace(trace)
	}
	freq, transition := trace.Frequency(), trace.TransitionCycles()
	for _, tab := range [][]events.CallEvent{trace.Ecalls.Rows(), trace.Ocalls.Rows()} {
		for _, ev := range tab {
			if opts.Enclave != 0 && ev.Enclave != opts.Enclave {
				continue
			}
			adj := freq.Duration(ev.Duration())
			if ev.Kind == events.KindEcall {
				adj = freq.Duration(ev.Duration() - transition)
				if adj < 0 {
					adj = 0
				}
			}
			o.all = append(o.all, oracleCall{ev: ev, adjusted: adj, parent: -1, indirect: -1})
		}
	}
	// Visiting order: (Start, ID), ecalls first on ties.
	sort.SliceStable(o.all, func(i, j int) bool {
		a, b := o.all[i].ev, o.all[j].ev
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})

	byID := make(map[events.EventID]int, len(o.all))
	for i := range o.all {
		byID[o.all[i].ev.ID] = i
	}
	// closesAt is the index of the first call visited after k that
	// starts after k's End: from there on, k is closed.
	closesAt := func(k int) int {
		for t := k + 1; t < len(o.all); t++ {
			if o.all[t].ev.Start > o.all[k].ev.End {
				return t
			}
		}
		return len(o.all)
	}
	type groupKey struct {
		thread int64
		kind   events.CallKind
		parent events.EventID
	}
	last := make(map[groupKey]int)
	for i := range o.all {
		c := &o.all[i]
		o.byName[c.ev.Name] = append(o.byName[c.ev.Name], i)
		k, known := -1, false
		if c.ev.Parent != events.NoEvent {
			k, known = byID[c.ev.Parent]
		}
		if known && k < i && o.all[k].ev.End >= c.ev.Start {
			c.parent = k
		}
		g := groupKey{int64(c.ev.Thread), c.ev.Kind, c.ev.Parent}
		if prev, ok := last[g]; ok {
			// The chain breaks when the group's parent closed between
			// the previous call and this one.
			if !known || !(prev < closesAt(k) && closesAt(k) <= i) {
				c.indirect = prev
				c.gap = freq.Duration(c.ev.Start - o.all[prev].ev.End)
				if c.gap < 0 {
					c.gap = 0
				}
			}
		}
		last[g] = i
	}
	for n := range o.byName {
		o.names = append(o.names, n)
	}
	sort.Strings(o.names)
	return o
}

// oracleReport is the oracle's full report.
func oracleReport(trace *events.Trace, opts Options) *Report {
	return newOracle(trace, opts).report()
}

func (o *oracle) report() *Report {
	r := &Report{}
	if o.trace.Meta.Len() > 0 {
		r.Workload = o.trace.Meta.At(0).Workload
	}
	r.Stats = o.allStats()
	r.Graph = o.callGraph()
	r.Paging = o.pagingSummary()
	r.WakeGraph = o.wakeGraph()
	r.Switchless = o.switchless()
	r.Findings = append(r.Findings, o.moving()...)
	r.Findings = append(r.Findings, o.reordering()...)
	r.Findings = append(r.Findings, o.merging()...)
	r.Findings = append(r.Findings, o.ssc()...)
	r.Findings = append(r.Findings, PagingFindings(r.Paging, o.opts.Weights)...)
	SortFindings(r.Findings)
	r.Security = append(r.Security, o.privateCandidates()...)
	r.Security = append(r.Security, o.allowHints()...)
	r.Security = append(r.Security, userCheckHintsFor(o.iface)...)
	return r
}

// indirectParentOf is the oracle's Fig. 4 answer for one event ID.
func (o *oracle) indirectParentOf(id events.EventID) (events.EventID, bool) {
	for i := range o.all {
		if o.all[i].ev.ID == id && o.all[i].indirect >= 0 {
			return o.all[o.all[i].indirect].ev.ID, true
		}
	}
	return events.NoEvent, false
}

func (o *oracle) kindOf(name string) events.CallKind {
	if idx := o.byName[name]; len(idx) > 0 {
		return o.all[idx[0]].ev.Kind
	}
	return 0
}

func (o *oracle) totalOf(name string) int { return len(o.byName[name]) }

func (o *oracle) stats(name string) (CallStats, bool) {
	idx := o.byName[name]
	durs := make([]time.Duration, len(idx))
	aex := 0
	for i, j := range idx {
		durs[i] = o.all[j].adjusted
		aex += o.all[j].ev.AEXCount
	}
	return StatsFromDurations(name, o.kindOf(name), durs, aex)
}

func (o *oracle) allStats() []CallStats {
	out := make([]CallStats, 0, len(o.names))
	for _, n := range o.names {
		if s, ok := o.stats(n); ok {
			out = append(out, s)
		}
	}
	SortStats(out)
	return out
}

func (o *oracle) callGraph() *CallGraph {
	g := &CallGraph{}
	for _, n := range o.names {
		first := o.all[o.byName[n][0]].ev
		g.Nodes = append(g.Nodes, GraphNode{Name: n, Kind: first.Kind, CallID: first.CallID, Count: len(o.byName[n])})
	}
	agg := make(map[GraphKey]int)
	for i := range o.all {
		c := &o.all[i]
		if c.parent >= 0 {
			agg[GraphKey{From: o.all[c.parent].ev.Name, To: c.ev.Name}]++
		}
		if c.indirect >= 0 {
			agg[GraphKey{From: o.all[c.indirect].ev.Name, To: c.ev.Name, Indirect: true}]++
		}
	}
	for k, n := range agg {
		g.Edges = append(g.Edges, GraphEdge{From: k.From, To: k.To, Count: n, Indirect: k.Indirect})
	}
	sortGraphEdges(g.Edges)
	return g
}

// pagingSummary answers the during-call question by a linear scan over
// every call for every paging event.
func (o *oracle) pagingSummary() PagingStats {
	out := PagingStats{ByRegion: make(map[string]int)}
	for _, p := range o.trace.Paging.Rows() {
		if p.Kind == events.PageIn {
			out.PageIns++
		} else {
			out.PageOuts++
		}
		out.ByRegion[p.PageKind]++
		for i := range o.all {
			c := &o.all[i].ev
			if c.Thread == p.Thread && c.Start <= p.Time && p.Time <= c.End {
				out.DuringCalls++
				break
			}
		}
	}
	return out
}

func (o *oracle) wakeGraph() []WakeEdge {
	agg := make(map[[2]int64]int)
	for _, s := range o.trace.Syncs.Rows() {
		if s.Kind != events.SyncWake {
			continue
		}
		for _, t := range s.Targets {
			agg[[2]int64{int64(s.Thread), int64(t)}]++
		}
	}
	return WakeEdges(agg)
}

func (o *oracle) switchless() SwitchlessStats {
	agg := make(map[string]*SwitchlessAgg)
	for _, ev := range o.trace.Switchless.Rows() {
		SwitchlessFold(agg, &ev)
	}
	return SwitchlessStatsFrom(agg, o.trace.Frequency())
}

func (o *oracle) moving() []Finding {
	var out []Finding
	for _, n := range o.names {
		s, _ := o.stats(n)
		if f, ok := MovingFinding(s, o.opts.Weights); ok {
			out = append(out, f)
		}
	}
	return out
}

func (o *oracle) reordering() []Finding {
	freq := o.trace.Frequency()
	var out []Finding
	for _, n := range o.names {
		var agg ReorderAgg
		for _, j := range o.byName[n] {
			c := &o.all[j]
			if c.parent >= 0 {
				p := o.all[c.parent].ev
				agg.Add(freq.Duration(c.ev.Start-p.Start), freq.Duration(p.End-c.ev.End))
			}
		}
		out = append(out, ReorderFindings(n, o.kindOf(n), agg, o.opts.Weights)...)
	}
	return out
}

func (o *oracle) merging() []Finding {
	pairs := make(map[MergePair]*MergeAgg)
	for i := range o.all {
		c := &o.all[i]
		if c.indirect < 0 {
			continue
		}
		k := MergePair{Parent: o.all[c.indirect].ev.Name, Child: c.ev.Name}
		if pairs[k] == nil {
			pairs[k] = &MergeAgg{}
		}
		pairs[k].Add(c.gap)
	}
	return MergeFindings(pairs, o.totalOf, o.kindOf, o.opts.Weights)
}

func (o *oracle) ssc() []Finding {
	w := o.opts.Weights
	byCall := make(map[events.EventID]time.Duration, len(o.all))
	for i := range o.all {
		byCall[o.all[i].ev.ID] = o.all[i].adjusted
	}
	agg := SyncAgg{}
	for _, s := range o.trace.Syncs.Rows() {
		agg.Total++
		switch s.Kind {
		case events.SyncWake:
			agg.Wakes++
			if d, ok := byCall[s.Call]; ok && d < w.SyncShortLimit {
				agg.ShortWakes++
			}
		case events.SyncSleep:
			agg.Sleeps++
		}
	}
	return SSCFindings(agg, w)
}

// privateCandidates: ecalls whose every instance had a Parent link, with
// the names of the parents that were open.
func (o *oracle) privateCandidates() []SecurityHint {
	var out []SecurityHint
	for _, n := range o.names {
		if o.kindOf(n) != events.KindEcall {
			continue
		}
		if o.iface != nil {
			if f, ok := o.iface.Lookup(n); ok && !f.Public {
				continue
			}
		}
		parents := make(map[string]bool)
		nested := true
		for _, j := range o.byName[n] {
			c := &o.all[j]
			if c.ev.Parent == events.NoEvent {
				nested = false
				break
			}
			if c.parent >= 0 {
				parents[o.all[c.parent].ev.Name] = true
			}
		}
		if nested {
			out = append(out, makePrivateHint(n, sortedKeys(parents)))
		}
	}
	return out
}

func (o *oracle) allowHints() []SecurityHint {
	observed := make(map[string]map[string]bool)
	for i := range o.all {
		c := &o.all[i]
		if c.ev.Kind != events.KindEcall || c.parent < 0 {
			continue
		}
		pn := o.all[c.parent].ev.Name
		if observed[pn] == nil {
			observed[pn] = make(map[string]bool)
		}
		observed[pn][c.ev.Name] = true
	}
	return allowHintsFrom(o.iface, observed, o.totalOf)
}

// OracleReport exposes the oracle to the external test package.
func OracleReport(trace *events.Trace, opts Options) *Report { return oracleReport(trace, opts) }

// GoldenTrace exposes the golden fixture to the external test package.
func GoldenTrace(t *testing.T, seed uint64, nOps int) *events.Trace {
	return goldenTrace(t, seed, nOps)
}
