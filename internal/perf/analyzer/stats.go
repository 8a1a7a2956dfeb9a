package analyzer

import (
	"math"
	"slices"
	"time"

	"sgxperf/internal/perf/events"
)

// CallStats are the general statistics of §4.3.1 for one call, computed
// over execution durations (ecalls: transition-adjusted, §4.1.2).
type CallStats struct {
	Name  string
	Kind  events.CallKind
	Count int

	Mean   time.Duration
	Median time.Duration
	Std    time.Duration
	P90    time.Duration
	P95    time.Duration
	P99    time.Duration
	Min    time.Duration
	Max    time.Duration

	// Short-call fractions feeding Equation 1.
	FracBelow1us  float64
	FracBelow5us  float64
	FracBelow10us float64

	// TotalAEX sums AEXs over all executions (ecalls only).
	TotalAEX int
}

// Stats returns the statistics for one call name, or ok=false if
// unseen. It reads the memoised report.
func (a *Analyzer) Stats(name string) (CallStats, bool) {
	for _, s := range a.memo().Stats {
		if s.Name == name {
			return s, true
		}
	}
	return CallStats{}, false
}

// AllStats returns statistics for every call name, ordered by
// descending count (the overview of §4.3.1). It reads the memoised
// report.
func (a *Analyzer) AllStats() []CallStats {
	return slices.Clone(a.memo().Stats)
}

// percentile returns the p-quantile (0..1) of sorted durations using the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// HistogramBin is one bucket of call execution times (Fig. 7).
type HistogramBin struct {
	Lo, Hi time.Duration
	Count  int
}

// Histogram buckets the call's execution times into bins equal-width bins
// (the paper groups into 100, Fig. 7).
func (a *Analyzer) Histogram(name string, bins int) []HistogramBin {
	calls := a.calls().byName[name]
	if len(calls) == 0 || bins <= 0 {
		return nil
	}
	lo, hi := calls[0].adjusted, calls[0].adjusted
	for _, c := range calls {
		lo = min(lo, c.adjusted)
		hi = max(hi, c.adjusted)
	}
	width := (hi - lo) / time.Duration(bins)
	if width <= 0 {
		width = 1
	}
	out := make([]HistogramBin, bins)
	for i := range out {
		out[i].Lo = lo + time.Duration(i)*width
		out[i].Hi = out[i].Lo + width
	}
	for _, c := range calls {
		idx := int((c.adjusted - lo) / width)
		if idx >= bins {
			idx = bins - 1
		}
		out[idx].Count++
	}
	return out
}

// ScatterPoint is one call execution plotted over application time
// (Fig. 8).
type ScatterPoint struct {
	// T is the call's start relative to the first event in the trace.
	T time.Duration
	// Dur is the call's execution time.
	Dur time.Duration
}

// Scatter returns the call's execution times over the course of the
// run, in start order.
func (a *Analyzer) Scatter(name string) []ScatterPoint {
	idx := a.calls()
	calls := idx.byName[name]
	if len(calls) == 0 {
		return nil
	}
	freq := a.trace.Frequency()
	out := make([]ScatterPoint, len(calls))
	for i, c := range calls {
		out[i] = ScatterPoint{T: freq.Duration(c.start - idx.t0), Dur: c.adjusted}
	}
	return out
}
