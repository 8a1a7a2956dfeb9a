package events

import "sgxperf/internal/evstore"

// StreamSort rewrites the trace's order-sensitive tables into the
// stream-sorted layout the streaming analyzer fold requires: ecalls and
// ocalls each globally sorted by (Start, ID), paging by (Time, ID). The
// remaining tables are order-free for the fold and are left untouched.
// A table already in that order is not rewritten (one O(n) check), so a
// sorted trace keeps its rows, chunk hashes and ContentKey. Call it
// before Save when the trace is destined for out-of-core analysis;
// resident analysis is order-insensitive either way.
func StreamSort(t *Trace) {
	callLess := func(a, b CallEvent) bool {
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	}
	sortTable(t.Ecalls, callLess)
	sortTable(t.Ocalls, callLess)
	sortTable(t.Paging, func(a, b PagingEvent) bool {
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.ID < b.ID
	})
}

// sortTable replaces tbl's rows with their stable order under less,
// unless they are in that order already.
func sortTable[T any](tbl *evstore.Table[T], less func(a, b T) bool) {
	ordered := true
	var prev T
	first := true
	tbl.ScanChunks(func(rows []T) bool {
		for _, r := range rows {
			if !first && less(r, prev) {
				ordered = false
				return false
			}
			prev, first = r, false
		}
		return true
	})
	if !ordered {
		tbl.Replace(tbl.OrderedBy(less))
	}
}
