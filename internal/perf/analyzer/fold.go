package analyzer

// The streaming fold: the analyser's one engine. Every report — Analyze
// over a resident trace, AnalyzeStream over a saved file, serve's
// windowed reports — is a single merge sweep over time-ordered
// ecall/ocall/paging chunks with carry state bounded by O(open calls +
// threads), independent of trace length. The sweep feeds per-name and
// per-pair aggregates (ReorderAgg, MergeAgg, MergePair, graph edge
// counts, per-name duration histograms), which AssembleReport renders
// into the Report.
//
// Preconditions. The fold requires the stream-sorted layout
// events.StreamSort produces — ecalls and ocalls each sorted by (Start,
// ID), paging by (Time, ID) — and verifies it as it sweeps, returning
// ErrUnsorted otherwise. Analyze sorts a private copy when a resident
// trace is not in that layout.
//
// The parent rule. Calls are visited in (Start, ID) order, ecalls
// before ocalls on ties. A call is open from its visit until a later
// visited call starts after its End. Then:
//   - a Parent link counts only while the parent is open at the child's
//     start (the parent was visited first and has End >= the child's
//     Start); otherwise the child has no direct parent;
//   - indirect parents chain successive calls of one (thread, kind,
//     Parent) group, and a group under parent P starts afresh once P
//     closes — a call visited before P closed never becomes the
//     indirect parent of one visited after.
//
// Properly nested traces, which the SDK records, satisfy both trivially.
//
// Carry bounds. The open-call map and per-thread maxEnd are O(threads)
// for nested traces. Indirect-parent group slots are evicted when their
// parent call closes; only top-level groups (one per thread × kind) and
// groups under parents that are never open (outside the enclave filter,
// dangling, or already closed) persist for the whole sweep.

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sort"
	"time"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// ErrUnsorted reports that a streamed table is not in the stream-sorted
// layout (events.StreamSort) the fold requires. Sort the trace (or let
// Analyze sort a private copy) and fold again.
var ErrUnsorted = errors.New("analyzer: trace tables are not stream-sorted")

// ChunkSeq supplies one table's rows chunk-by-chunk with random access,
// so window recomputation can re-read only the chunks it needs. Both a
// resident evstore table and a stream cursor satisfy it (see source.go).
type ChunkSeq[T any] interface {
	NumChunks() int
	Chunk(i int) ([]T, error)
}

// FoldConfig carries the trace-wide constants of one fold.
type FoldConfig struct {
	Weights    Weights
	Freq       vtime.Frequency
	Transition vtime.Cycles
	Enclave    sgx.EnclaveID
	// SyncRefs maps a call event ID to the number of wake sync events
	// carried by that ocall (from PrescanSyncs). The sweep resolves
	// SyncAgg.ShortWakes from it without keeping call durations around.
	SyncRefs map[events.EventID]int
}

// FoldInput bundles the three time-ordered feeds of one fold.
type FoldInput struct {
	Ecalls ChunkSeq[events.CallEvent]
	Ocalls ChunkSeq[events.CallEvent]
	Paging ChunkSeq[events.PagingEvent]
}

// foldPos is a resume position inside a ChunkSeq.
type foldPos struct {
	chunk, row int
}

type callKey struct {
	start vtime.Cycles
	id    events.EventID
}

func callKeyOf(e *events.CallEvent) callKey     { return callKey{e.Start, e.ID} }
func pagingKeyOf(p *events.PagingEvent) callKey { return callKey{p.Time, p.ID} }

func (k callKey) less(o callKey) bool {
	if k.start != o.start {
		return k.start < o.start
	}
	return k.id < o.id
}

type openCall struct {
	name       string
	start, end vtime.Cycles
}

// foldGroup is the indirect-parent group key (Fig. 4): successive calls
// of one (thread, kind, Parent) group link as indirect parent and child.
type foldGroup struct {
	thread int64
	kind   events.CallKind
	parent events.EventID
}

type groupPrev struct {
	// id identifies the previous call for the per-call index
	// (Analyzer.IndirectParentOf); no delta reads it, so Hash leaves it
	// out.
	id   events.EventID
	name string
	end  vtime.Cycles
}

// FoldCarry is the cross-chunk state of a fold: cursor resume
// positions, monotonicity watermarks, the open-call set, the
// indirect-parent group slots and the per-thread latest call end. Its
// size is bounded by the number of concurrently open calls and threads,
// never by trace length.
type FoldCarry struct {
	ePos, oPos, pPos   foldPos
	lastCall, lastPage callKey
	seenCall, seenPage bool

	open map[events.EventID]openCall
	// minEnd is a lower bound on the earliest End in open, exact after
	// every eviction scan (meaningless while open is empty). It is
	// derived state: evict returns early while no open call can have
	// closed, and Hash leaves it out.
	minEnd   vtime.Cycles
	groups   map[foldGroup]groupPrev
	groupsOf map[events.EventID][]foldGroup
	maxEnd   map[sgx.ThreadID]vtime.Cycles
}

// NewFoldCarry returns the empty carry a fold starts from.
func NewFoldCarry() *FoldCarry {
	return &FoldCarry{
		open:     make(map[events.EventID]openCall),
		groups:   make(map[foldGroup]groupPrev),
		groupsOf: make(map[events.EventID][]foldGroup),
		maxEnd:   make(map[sgx.ThreadID]vtime.Cycles),
	}
}

// Clone deep-copies the carry so a cached carry-out can seed the next
// window without aliasing.
func (c *FoldCarry) Clone() *FoldCarry {
	out := &FoldCarry{
		ePos: c.ePos, oPos: c.oPos, pPos: c.pPos,
		lastCall: c.lastCall, lastPage: c.lastPage,
		seenCall: c.seenCall, seenPage: c.seenPage,
		minEnd:   c.minEnd,
		open:     make(map[events.EventID]openCall, len(c.open)),
		groups:   make(map[foldGroup]groupPrev, len(c.groups)),
		groupsOf: make(map[events.EventID][]foldGroup, len(c.groupsOf)),
		maxEnd:   make(map[sgx.ThreadID]vtime.Cycles, len(c.maxEnd)),
	}
	for k, v := range c.open {
		out.open[k] = v
	}
	for k, v := range c.groups {
		out.groups[k] = v
	}
	for k, v := range c.groupsOf {
		out.groupsOf[k] = append([]foldGroup(nil), v...)
	}
	for k, v := range c.maxEnd {
		out.maxEnd[k] = v
	}
	return out
}

// Hash digests the carry's semantic content (positions, watermarks,
// open calls, group slots, thread watermarks) in a sorted, deterministic
// order, so equal carries — however produced — hash equally. The serve
// daemon chains it into window cache keys.
func (c *FoldCarry) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	ws := func(s string) {
		wi(int64(len(s)))
		h.Write([]byte(s))
	}
	for _, p := range []foldPos{c.ePos, c.oPos, c.pPos} {
		wi(int64(p.chunk))
		wi(int64(p.row))
	}
	for _, k := range []callKey{c.lastCall, c.lastPage} {
		wi(int64(k.start))
		wi(int64(k.id))
	}
	wi(int64(boolInt(c.seenCall)))
	wi(int64(boolInt(c.seenPage)))

	ids := make([]events.EventID, 0, len(c.open))
	for id := range c.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	wi(int64(len(ids)))
	for _, id := range ids {
		oc := c.open[id]
		wi(int64(id))
		ws(oc.name)
		wi(int64(oc.start))
		wi(int64(oc.end))
	}

	gks := make([]foldGroup, 0, len(c.groups))
	for k := range c.groups {
		gks = append(gks, k)
	}
	sort.Slice(gks, func(i, j int) bool {
		a, b := gks[i], gks[j]
		if a.thread != b.thread {
			return a.thread < b.thread
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.parent < b.parent
	})
	wi(int64(len(gks)))
	for _, k := range gks {
		wi(k.thread)
		wi(int64(k.kind))
		wi(int64(k.parent))
		p := c.groups[k]
		ws(p.name)
		wi(int64(p.end))
	}

	ths := make([]sgx.ThreadID, 0, len(c.maxEnd))
	for t := range c.maxEnd {
		ths = append(ths, t)
	}
	sort.Slice(ths, func(i, j int) bool { return ths[i] < ths[j] })
	wi(int64(len(ths)))
	for _, t := range ths {
		wi(int64(t))
		wi(int64(c.maxEnd[t]))
	}
	return h.Sum64()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// evict drops open calls that ended before pos, and with each the group
// slots keyed under it: a closed parent takes no further children (the
// parent rule), so the slots are dead. The minEnd watermark skips the
// scan while no open call has ended before pos.
//
//sgxperf:hotpath
func (c *FoldCarry) evict(pos vtime.Cycles) {
	if len(c.open) == 0 || pos <= c.minEnd {
		return
	}
	first := true
	for id, oc := range c.open {
		if oc.end < pos {
			delete(c.open, id)
			for _, gk := range c.groupsOf[id] {
				delete(c.groups, gk)
			}
			delete(c.groupsOf, id)
			continue
		}
		if first || oc.end < c.minEnd {
			c.minEnd = oc.end
			first = false
		}
	}
}

// admit applies the parent rule to one in-filter call visited in fold
// order: it evicts the calls closed before the call starts, resolves the
// call's direct parent (when open) and its indirect parent (the previous
// call of its group, when still live), and enters the call into the
// open set, its group slot and its thread's latest end.
//
//sgxperf:hotpath
func (c *FoldCarry) admit(call *events.CallEvent) (parent openCall, direct bool, prev groupPrev, indirect bool) {
	c.evict(call.Start)
	if call.Parent != events.NoEvent {
		parent, direct = c.open[call.Parent]
	}
	gk := foldGroup{thread: int64(call.Thread), kind: call.Kind, parent: call.Parent}
	prev, indirect = c.groups[gk]
	if !indirect && call.Parent != events.NoEvent {
		c.groupsOf[call.Parent] = append(c.groupsOf[call.Parent], gk)
	}
	c.groups[gk] = groupPrev{id: call.ID, name: call.Name, end: call.End}

	if len(c.open) == 0 || call.End < c.minEnd {
		c.minEnd = call.End
	}
	c.open[call.ID] = openCall{name: call.Name, start: call.Start, end: call.End}
	if me, ok := c.maxEnd[call.Thread]; !ok || call.End > me {
		c.maxEnd[call.Thread] = call.End
	}
	return parent, direct, prev, indirect
}

// GraphKey identifies one call-graph edge: direct (solid) or indirect
// (dashed) parenthood from one call name to another.
type GraphKey struct {
	From, To string
	Indirect bool
}

// NameAgg accumulates one call name's streaming aggregates: the
// duration multiset as a histogram (bounded by distinct durations, not
// executions), the AEX total, and the first-occurrence kind and call ID
// the call graph reports.
type NameAgg struct {
	Kind     events.CallKind
	CallID   int
	Count    int
	TotalAEX int
	Hist     map[time.Duration]int
}

// PagingAgg accumulates the paging summary counters.
type PagingAgg struct {
	PageIns, PageOuts, DuringCalls int
	ByRegion                       map[string]int
}

// PrivateAgg accumulates one ecall name's make-private evidence.
type PrivateAgg struct {
	// TopLevel records that at least one execution had no direct parent.
	TopLevel bool
	// Parents are the resolved direct-parent names.
	Parents map[string]bool
}

// FoldDelta is one window's (or one whole sweep's) aggregate output.
// Deltas merge associatively in window order; a merged delta equals the
// delta of the concatenated input.
type FoldDelta struct {
	Names      map[string]*NameAgg
	Reorder    map[string]*ReorderAgg
	Merge      map[MergePair]*MergeAgg
	Edges      map[GraphKey]int
	Paging     PagingAgg
	ShortWakes int
	Private    map[string]*PrivateAgg
	Observed   map[string]map[string]bool
}

// NewFoldDelta returns an empty delta.
func NewFoldDelta() *FoldDelta {
	return &FoldDelta{
		Names:    make(map[string]*NameAgg),
		Reorder:  make(map[string]*ReorderAgg),
		Merge:    make(map[MergePair]*MergeAgg),
		Edges:    make(map[GraphKey]int),
		Paging:   PagingAgg{ByRegion: make(map[string]int)},
		Private:  make(map[string]*PrivateAgg),
		Observed: make(map[string]map[string]bool),
	}
}

func (d *FoldDelta) name(ev *events.CallEvent) *NameAgg {
	na := d.Names[ev.Name]
	if na == nil {
		na = &NameAgg{Kind: ev.Kind, CallID: ev.CallID, Hist: make(map[time.Duration]int)}
		d.Names[ev.Name] = na
	}
	return na
}

func (d *FoldDelta) reorder(name string) *ReorderAgg {
	g := d.Reorder[name]
	if g == nil {
		g = &ReorderAgg{}
		d.Reorder[name] = g
	}
	return g
}

func (d *FoldDelta) merge(k MergePair) *MergeAgg {
	g := d.Merge[k]
	if g == nil {
		g = &MergeAgg{}
		d.Merge[k] = g
	}
	return g
}

func (d *FoldDelta) private(name string) *PrivateAgg {
	p := d.Private[name]
	if p == nil {
		p = &PrivateAgg{Parents: make(map[string]bool)}
		d.Private[name] = p
	}
	return p
}

func (d *FoldDelta) observed(parent string) map[string]bool {
	s := d.Observed[parent]
	if s == nil {
		s = make(map[string]bool)
		d.Observed[parent] = s
	}
	return s
}

// MergeFrom folds a later window's delta into this one. Window order
// matters only for the first-occurrence fields of NameAgg.
func (d *FoldDelta) MergeFrom(o *FoldDelta) {
	for name, na := range o.Names {
		mine := d.Names[name]
		if mine == nil {
			mine = &NameAgg{Kind: na.Kind, CallID: na.CallID, Hist: make(map[time.Duration]int)}
			d.Names[name] = mine
		}
		mine.Count += na.Count
		mine.TotalAEX += na.TotalAEX
		for dur, n := range na.Hist {
			mine.Hist[dur] += n
		}
	}
	for name, g := range o.Reorder {
		mine := d.reorder(name)
		mine.Total += g.Total
		mine.S10 += g.S10
		mine.S20 += g.S20
		mine.E10 += g.E10
		mine.E20 += g.E20
	}
	for k, g := range o.Merge {
		mine := d.merge(k)
		mine.Count += g.Count
		mine.G1 += g.G1
		mine.G5 += g.G5
		mine.G10 += g.G10
		mine.G20 += g.G20
	}
	for k, n := range o.Edges {
		d.Edges[k] += n
	}
	d.Paging.PageIns += o.Paging.PageIns
	d.Paging.PageOuts += o.Paging.PageOuts
	d.Paging.DuringCalls += o.Paging.DuringCalls
	for r, n := range o.Paging.ByRegion {
		d.Paging.ByRegion[r] += n
	}
	d.ShortWakes += o.ShortWakes
	for name, p := range o.Private {
		mine := d.private(name)
		mine.TopLevel = mine.TopLevel || p.TopLevel
		for pn := range p.Parents {
			mine.Parents[pn] = true
		}
	}
	for parent, set := range o.Observed {
		mine := d.observed(parent)
		for n := range set {
			mine[n] = true
		}
	}
}

// seqCursor walks one ChunkSeq from a resume position, holding at most
// one chunk resident. It checks ctx before loading each chunk, so a
// cancelled fold stops between chunks.
type seqCursor[T any] struct {
	ctx        context.Context
	seq        ChunkSeq[T]
	n          int
	chunk, row int
	buf        []T
	loaded     bool
}

func newSeqCursor[T any](ctx context.Context, seq ChunkSeq[T], pos foldPos) *seqCursor[T] {
	return &seqCursor[T]{ctx: ctx, seq: seq, n: seq.NumChunks(), chunk: pos.chunk, row: pos.row}
}

// head returns the current row without consuming it, or nil at EOF.
func (c *seqCursor[T]) head() (*T, error) {
	for c.chunk < c.n {
		if !c.loaded {
			if err := c.ctx.Err(); err != nil {
				return nil, err
			}
			buf, err := c.seq.Chunk(c.chunk)
			if err != nil {
				return nil, err
			}
			c.buf = buf
			c.loaded = true
		}
		if c.row < len(c.buf) {
			return &c.buf[c.row], nil
		}
		c.chunk++
		c.row = 0
		c.buf = nil
		c.loaded = false
	}
	return nil, nil
}

func (c *seqCursor[T]) pop() { c.row++ }

func (c *seqCursor[T]) pos() foldPos { return foldPos{c.chunk, c.row} }

// nextCall returns the earlier of the two call cursors' heads in fold
// order — (Start, ID), the ecall on ties — and the cursor holding it,
// or a nil call once both are exhausted. The caller pops the cursor.
func nextCall(ec, oc *seqCursor[events.CallEvent]) (*events.CallEvent, *seqCursor[events.CallEvent], error) {
	e, err := ec.head()
	if err != nil {
		return nil, nil, err
	}
	o, err := oc.head()
	if err != nil {
		return nil, nil, err
	}
	switch {
	case e != nil && (o == nil || !callKeyOf(o).less(callKeyOf(e))):
		return e, ec, nil
	case o != nil:
		return o, oc, nil
	}
	return nil, nil, nil
}

// WindowBound returns the exclusive time bound of window k: the
// earliest first-row Start of the two call tables' chunk k+1. Events at
// or after the bound belong to later windows. ok=false means neither
// table has a chunk k+1, so window k is the final one.
func WindowBound(in FoldInput, k int) (vtime.Cycles, bool, error) {
	var bound vtime.Cycles
	ok := false
	for _, seq := range []ChunkSeq[events.CallEvent]{in.Ecalls, in.Ocalls} {
		if seq == nil || k+1 >= seq.NumChunks() {
			continue
		}
		rows, err := seq.Chunk(k + 1)
		if err != nil {
			return 0, false, err
		}
		if len(rows) == 0 {
			continue
		}
		if !ok || rows[0].Start < bound {
			bound = rows[0].Start
			ok = true
		}
	}
	return bound, ok, nil
}

// FoldWindow runs the merge sweep from carry's resume positions up to
// (but excluding) events at or after bound, or to end of data when
// final is set. It returns the window's delta and the carry-out; the
// carry-in is not mutated. The carry-out is canonical for (carry-in,
// consumed events): open calls ending before the bound are evicted, so
// its Hash depends only on semantic content.
func FoldWindow(cfg *FoldConfig, carryIn *FoldCarry, in FoldInput, bound vtime.Cycles, final bool) (*FoldDelta, *FoldCarry, error) {
	return foldWindow(context.Background(), cfg, carryIn, in, bound, final)
}

// foldWindow is FoldWindow with cancellation checked before each chunk
// is loaded; a cancelled fold returns ctx.Err().
func foldWindow(ctx context.Context, cfg *FoldConfig, carryIn *FoldCarry, in FoldInput, bound vtime.Cycles, final bool) (*FoldDelta, *FoldCarry, error) {
	carry := carryIn.Clone()
	delta := NewFoldDelta()

	ec := newSeqCursor[events.CallEvent](ctx, in.Ecalls, carry.ePos)
	oc := newSeqCursor[events.CallEvent](ctx, in.Ocalls, carry.oPos)
	pc := newSeqCursor[events.PagingEvent](ctx, in.Paging, carry.pPos)

	for {
		call, from, err := nextCall(ec, oc)
		if err != nil {
			return nil, nil, err
		}
		if call != nil && !final && call.Start >= bound {
			call = nil
		}

		p, err := pc.head()
		if err != nil {
			return nil, nil, err
		}
		if p != nil && !final && p.Time >= bound {
			p = nil
		}

		// Paging events interleave after calls sharing their timestamp:
		// the DuringCalls test is Start <= Time <= End, inclusive.
		if p != nil && (call == nil || p.Time < call.Start) {
			k := pagingKeyOf(p)
			if carry.seenPage && k.less(carry.lastPage) {
				return nil, nil, ErrUnsorted
			}
			carry.lastPage, carry.seenPage = k, true
			if p.Kind == events.PageIn {
				delta.Paging.PageIns++
			} else {
				delta.Paging.PageOuts++
			}
			delta.Paging.ByRegion[p.PageKind]++
			if me, ok := carry.maxEnd[p.Thread]; ok && me >= p.Time {
				delta.Paging.DuringCalls++
			}
			pc.pop()
			continue
		}
		if call == nil {
			break
		}

		k := callKeyOf(call)
		if carry.seenCall && k.less(carry.lastCall) {
			return nil, nil, ErrUnsorted
		}
		carry.lastCall, carry.seenCall = k, true
		if cfg.Enclave != 0 && call.Enclave != cfg.Enclave {
			from.pop()
			continue
		}

		foldCall(cfg, carry, delta, call)
		from.pop()
	}

	if !final {
		carry.evict(bound)
	}
	carry.ePos, carry.oPos, carry.pPos = ec.pos(), oc.pos(), pc.pos()
	return delta, carry, nil
}

// adjustedDuration is a call's execution time: ecalls have the
// transition round trip subtracted (§4.1.2, clamped at zero); ocall
// timestamps already exclude transitions.
func adjustedDuration(freq vtime.Frequency, transition vtime.Cycles, call *events.CallEvent) time.Duration {
	if call.Kind != events.KindEcall {
		return freq.Duration(call.Duration())
	}
	if d := freq.Duration(call.Duration() - transition); d > 0 {
		return d
	}
	return 0
}

// foldCall folds one in-filter call into the delta and carry.
func foldCall(cfg *FoldConfig, carry *FoldCarry, delta *FoldDelta, call *events.CallEvent) {
	adjusted := adjustedDuration(cfg.Freq, cfg.Transition, call)

	na := delta.name(call)
	na.Count++
	na.TotalAEX += call.AEXCount
	na.Hist[adjusted]++

	if n := cfg.SyncRefs[call.ID]; n > 0 && adjusted < cfg.Weights.SyncShortLimit {
		delta.ShortWakes += n
	}

	p, direct, prev, indirect := carry.admit(call)
	if direct {
		offStart := cfg.Freq.Duration(call.Start - p.start)
		offEnd := cfg.Freq.Duration(p.end - call.End)
		delta.reorder(call.Name).Add(offStart, offEnd)
		delta.Edges[GraphKey{From: p.name, To: call.Name}]++
		if call.Kind == events.KindEcall {
			delta.observed(p.name)[call.Name] = true
		}
	}
	// Tracked for every instance regardless of kind; the make-private
	// hint gates on the name's first-occurrence kind at render time.
	pa := delta.private(call.Name)
	if call.Parent == events.NoEvent {
		pa.TopLevel = true
	} else if direct {
		pa.Parents[p.name] = true
	}

	if indirect {
		gap := cfg.Freq.Duration(call.Start - prev.end)
		if gap < 0 {
			gap = 0
		}
		delta.merge(MergePair{Parent: prev.name, Child: call.Name}).Add(gap)
		delta.Edges[GraphKey{From: prev.name, To: call.Name, Indirect: true}]++
	}
}
