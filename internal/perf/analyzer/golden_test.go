package analyzer

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// xorshift is a tiny deterministic PRNG so the golden traces are stable
// across runs and platforms without importing math/rand.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// goldenTrace synthesises a trace exercising every kernel: many call
// names across threads and enclaves, nested ocalls with back-to-back
// repeats (merge/batch pressure), sync sleep/wake pairs, paging events
// inside and outside call windows, and AEX counts. Some ocalls start
// after their parent ecall has returned, so the fixture also exercises
// the parent rule (fold.go): those links do not count.
func goldenTrace(t *testing.T, seed uint64, nOps int) *events.Trace {
	t.Helper()
	b := newBuilder(t)
	rng := xorshift(seed | 1)
	names := []string{
		"ecall_put", "ecall_get", "ecall_del", "ecall_tick",
		"ecall_crypto", "ecall_flush",
	}
	onames := []string{"ocall_write", "ocall_read", "ocall_log"}
	clock := make([]float64, 8) // per-thread time in µs
	for op := 0; op < nOps; op++ {
		thread := int64(rng.intn(len(clock)))
		clock[thread] += float64(1 + rng.intn(40))
		start := clock[thread]
		dur := float64(1+rng.intn(30)) / 2
		name := names[rng.intn(len(names))]
		id := b.trace.NextID()
		enclave := sgx.EnclaveID(1 + rng.intn(2))
		b.trace.Ecalls.Insert(events.CallEvent{
			ID: id, Kind: events.KindEcall, Enclave: enclave,
			Thread: sgx.ThreadID(thread), CallID: rng.intn(8), Name: name,
			Start: b.cyc(start), End: b.cyc(start + dur),
			Parent: events.NoEvent, AEXCount: rng.intn(3),
		})
		// Nested ocalls, sometimes repeated back-to-back to trigger the
		// merge/batch detectors, sometimes near the parent's start for
		// the reordering detector.
		nested := rng.intn(3)
		at := start + float64(rng.intn(3))/4
		for k := 0; k < nested; k++ {
			oid := b.trace.NextID()
			oname := onames[rng.intn(len(onames))]
			odur := float64(1+rng.intn(6)) / 4
			b.trace.Ocalls.Insert(events.CallEvent{
				ID: oid, Kind: events.KindOcall, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Name: oname,
				Start: b.cyc(at), End: b.cyc(at + odur),
				Parent: id,
			})
			at += odur + float64(rng.intn(4))/4
			if rng.intn(4) == 0 { // occasional sync ocall with wake targets
				sid := b.trace.NextID()
				kind := events.SyncSleep
				var targets []sgx.ThreadID
				if rng.intn(2) == 0 {
					kind = events.SyncWake
					targets = []sgx.ThreadID{sgx.ThreadID(rng.intn(len(clock)))}
				}
				b.trace.Syncs.Insert(events.SyncEvent{
					ID: sid, Kind: kind, Thread: sgx.ThreadID(thread),
					Targets: targets, Time: b.cyc(at), Call: oid,
				})
			}
		}
		if rng.intn(5) == 0 {
			pid := b.trace.NextID()
			kind := events.PageIn
			if rng.intn(2) == 0 {
				kind = events.PageOut
			}
			// Half land inside the ecall window, half in the gaps.
			when := start + dur/2
			if rng.intn(2) == 0 {
				when = start + dur + 1
			}
			b.trace.Paging.Insert(events.PagingEvent{
				ID: pid, Kind: kind, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Vaddr: rng.next(),
				PageKind: []string{"heap", "stack", "code"}[rng.intn(3)],
				Time:     b.cyc(when),
			})
		}
		clock[thread] = start + dur
	}
	return b.trace
}

// analyzeAndOracle runs Analyze and the brute-force oracle over the
// same trace.
func analyzeAndOracle(t *testing.T, trace *events.Trace, opts Options) (got, want *Report) {
	t.Helper()
	a, err := New(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a.Analyze(), oracleReport(trace, opts)
}

// TestParallelAnalyzeDeepEqualGolden is the engine's core guarantee:
// on traces exercising every kernel, Analyze (the fold) is
// reflect.DeepEqual to the brute-force oracle — stats, findings (order
// included), security hints, paging, wake graph and call graph. (The
// name dates from the parallel pipeline this gate first held to the
// serial one.)
func TestParallelAnalyzeDeepEqualGolden(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		ops  int
	}{
		{seed: 1, ops: 50},
		{seed: 7, ops: 400},
		{seed: 42, ops: 1500},
	} {
		t.Run(fmt.Sprintf("seed=%d/ops=%d", tc.seed, tc.ops), func(t *testing.T) {
			trace := goldenTrace(t, tc.seed, tc.ops)
			got, want := analyzeAndOracle(t, trace, Options{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("report diverges from the oracle:\noracle:  %+v\nanalyze: %+v", want, got)
			}
		})
	}
}

// TestParallelAnalyzeDeepEqualPerEnclave repeats the guarantee with the
// per-enclave dissection filter active.
func TestParallelAnalyzeDeepEqualPerEnclave(t *testing.T) {
	trace := goldenTrace(t, 99, 600)
	for _, enc := range []sgx.EnclaveID{1, 2} {
		got, want := analyzeAndOracle(t, trace, Options{Enclave: enc})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("enclave %d: report diverges from the oracle", enc)
		}
	}
}

// TestParallelAnalyzeEmptyTrace checks the degenerate inputs: no
// calls, no paging, no syncs.
func TestParallelAnalyzeEmptyTrace(t *testing.T) {
	trace, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	got, want := analyzeAndOracle(t, trace, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty trace: analyze %+v != oracle %+v", got, want)
	}
}

// TestParallelAnalyzeRepeatable guards against run-dependent output:
// one Analyzer must produce the identical report run after run.
func TestParallelAnalyzeRepeatable(t *testing.T) {
	trace := goldenTrace(t, 1234, 800)
	a, err := New(trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := a.Analyze()
	for i := 0; i < 5; i++ {
		if got := a.Analyze(); !reflect.DeepEqual(first, got) {
			t.Fatalf("run %d differs from the first run", i)
		}
	}
}

// TestCallIntervalsMatchesLinearScan cross-checks the fold's O(1)
// during-call test (each thread's latest call end so far) against the
// linear-scan definition — some call on the paging event's thread spans
// its time — with paging events scattered over the golden trace.
func TestCallIntervalsMatchesLinearScan(t *testing.T) {
	trace := goldenTrace(t, 5, 300)
	rng := xorshift(77)
	var maxEnd vtime.Cycles
	trace.Ecalls.Scan(func(_ int, e events.CallEvent) bool {
		maxEnd = max(maxEnd, e.End)
		return true
	})
	for i := 0; i < 2000; i++ {
		trace.Paging.Insert(events.PagingEvent{
			ID: trace.NextID(), Kind: events.PageIn, Enclave: 1,
			Thread:   sgx.ThreadID(rng.intn(10)),
			PageKind: "heap",
			Time:     vtime.Cycles(rng.next() % uint64(maxEnd+1)),
		})
	}
	a, err := New(trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := a.Analyze().Paging
	want := newOracle(trace, Options{}).pagingSummary()
	if got.DuringCalls == 0 || got.DuringCalls == got.PageIns+got.PageOuts {
		t.Fatalf("degenerate fixture: %d of %d paging events during calls", got.DuringCalls, got.PageIns+got.PageOuts)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paging summary %+v, linear scan says %+v", got, want)
	}
}

// shuffledCopy returns a new trace holding the same events as tr with
// every order-sensitive table in a seeded random order.
func shuffledCopy(t *testing.T, tr *events.Trace, seed uint64) *events.Trace {
	t.Helper()
	out, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	rng := xorshift(seed | 1)
	shuffle := func(n int, swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, rng.intn(i+1))
		}
	}
	out.Meta.BatchInsert(tr.Meta.Rows())
	out.Enclaves.BatchInsert(tr.Enclaves.Rows())
	out.Syncs.BatchInsert(tr.Syncs.Rows())
	for _, tab := range []struct {
		from, to *evstore.Table[events.CallEvent]
	}{
		{tr.Ecalls, out.Ecalls}, {tr.Ocalls, out.Ocalls},
	} {
		rows := tab.from.Rows()
		shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		tab.to.BatchInsert(rows)
	}
	paging := tr.Paging.Rows()
	shuffle(len(paging), func(i, j int) { paging[i], paging[j] = paging[j], paging[i] })
	out.Paging.BatchInsert(paging)
	return out
}

// TestAnalyzeShuffledMatchesSorted: Analyze is order-free. A shuffled
// copy of a stream-sorted trace gives the identical report, and the
// private sort leaves the caller's rows and ContentKey untouched.
func TestAnalyzeShuffledMatchesSorted(t *testing.T) {
	sorted := goldenTrace(t, 3, 2500)
	events.StreamSort(sorted)
	shuffled := shuffledCopy(t, sorted, 11)
	ecalls, ocalls, paging := shuffled.Ecalls.Rows(), shuffled.Ocalls.Rows(), shuffled.Paging.Rows()
	key := shuffled.ContentKey()

	want, _ := analyzeAndOracle(t, sorted, Options{})
	got, oracle := analyzeAndOracle(t, shuffled, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shuffled trace's report differs from the stream-sorted original's")
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatal("shuffled trace's report differs from the oracle")
	}
	if !reflect.DeepEqual(shuffled.Ecalls.Rows(), ecalls) ||
		!reflect.DeepEqual(shuffled.Ocalls.Rows(), ocalls) ||
		!reflect.DeepEqual(shuffled.Paging.Rows(), paging) {
		t.Fatal("Analyze reordered the caller's tables")
	}
	if shuffled.ContentKey() != key {
		t.Fatal("Analyze changed the caller's ContentKey")
	}
}

// TestAnalyzerQueriesConcurrent uses one Analyzer's memoised report and
// per-call index from several goroutines at once; run it under -race.
func TestAnalyzerQueriesConcurrent(t *testing.T) {
	trace := goldenTrace(t, 8, 300)
	a, err := New(trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleReport(trace, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !reflect.DeepEqual(a.AllStats(), want.Stats) {
				t.Error("AllStats differs from the oracle")
			}
			if !reflect.DeepEqual(a.WakeGraph(), want.WakeGraph) {
				t.Error("WakeGraph differs from the oracle")
			}
			if len(a.Histogram("ecall_put", 10)) != 10 || len(a.Scatter("ocall_log")) == 0 {
				t.Error("per-call queries returned nothing")
			}
		}()
	}
	wg.Wait()
}
