package analyzer

import (
	"reflect"
	"testing"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// fuzzTrace decodes bytes into a small, possibly malformed event graph.
// The first byte picks the enclave filter; then every 6 bytes make one
// call:
//
//	b0: bit 0 kind (ocall when set), bits 1–2 thread, bits 3–4 enclave
//	    (3 is an enclave no descriptor names), bits 5–7 a side event
//	    (1 wake, 2 sleep, 3 page-in, 4 page-out) carried by the call
//	b1: start, in 100-cycle steps — ties and any order allowed
//	b2: duration, in 50-cycle steps — zero-length allowed
//	b3: parent — 0 none, else an index over every call plus three
//	    past the end: self, forward and cyclic links, and dangling IDs
//	b4: name
//	b5: AEX count and side-event thread
//
// Event IDs are unique, as the recorder assigns them.
func fuzzTrace(t *testing.T, data []byte) (*events.Trace, Options) {
	t.Helper()
	tr, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Insert(events.TraceMeta{Workload: "fuzz", FrequencyHz: 1e9, TransitionCycles: 100})
	tr.Enclaves.Insert(events.EnclaveMeta{Enclave: 1, Name: "one"}, events.EnclaveMeta{Enclave: 2, Name: "two"})
	var opts Options
	if len(data) > 0 {
		opts.Enclave = sgx.EnclaveID(data[0] % 4)
		data = data[1:]
	}
	n := len(data) / 6
	if n > 64 {
		n = 64
	}
	names := []string{"ecall_a", "ecall_b", "ocall_x", "sgx_thread_set_untrusted_event_ocall"}
	// Call i has ID i+1; side events take IDs after every call's.
	next := events.EventID(n)
	for i := 0; i < n; i++ {
		b := data[6*i : 6*i+6]
		ev := events.CallEvent{
			ID:       events.EventID(i + 1),
			Kind:     events.KindEcall,
			Thread:   sgx.ThreadID(b[0] >> 1 & 3),
			Enclave:  sgx.EnclaveID(b[0] >> 3 & 3),
			CallID:   int(b[4] % 4),
			Name:     names[b[4]%4],
			Start:    vtime.Cycles(b[1]) * 100,
			Parent:   events.NoEvent,
			AEXCount: int(b[5] % 3),
		}
		ev.End = ev.Start + vtime.Cycles(b[2])*50
		if p := int(b[3]) % (n + 4); p > 0 {
			ev.Parent = events.EventID(p)
		}
		if b[0]&1 == 1 {
			ev.Kind = events.KindOcall
			tr.Ocalls.Insert(ev)
		} else {
			tr.Ecalls.Insert(ev)
		}
		next++
		thread := sgx.ThreadID(b[5] >> 2 & 3)
		switch b[0] >> 5 {
		case 1:
			tr.Syncs.Insert(events.SyncEvent{ID: next, Kind: events.SyncWake, Thread: ev.Thread,
				Targets: []sgx.ThreadID{thread}, Time: ev.Start, Call: ev.ID})
		case 2:
			tr.Syncs.Insert(events.SyncEvent{ID: next, Kind: events.SyncSleep, Thread: ev.Thread,
				Time: ev.Start, Call: ev.ID})
		case 3, 4:
			kind := events.PageIn
			if b[0]>>5 == 4 {
				kind = events.PageOut
			}
			tr.Paging.Insert(events.PagingEvent{ID: next, Kind: kind, Enclave: ev.Enclave, Thread: thread,
				PageKind: "heap", Time: ev.Start + vtime.Cycles(b[2])*25})
		}
	}
	return tr, opts
}

// FuzzAnalyze feeds the engine malformed event graphs — parent cycles,
// self, dangling and forward parents, zero-length calls, unknown
// enclave IDs, calls in any order — and requires the report, the call
// names and every indirect parent to equal the brute-force oracle's,
// with no panic.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{0})
	// A nested pair: ecall then an ocall inside it.
	f.Add([]byte{0, 0, 0, 100, 0, 0, 0, 1, 2, 10, 1, 2, 0})
	// A parent cycle: two ecalls naming each other.
	f.Add([]byte{1, 8, 5, 10, 2, 0, 0, 8, 6, 10, 1, 1, 0})
	// A self parent, a dangling parent and a zero-length call.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 3, 0, 6, 1, 0, 24, 3, 5, 0, 3, 7})
	// Late children: ocalls naming an ecall that already returned.
	f.Add([]byte{2, 8, 0, 4, 0, 0, 0, 9, 10, 4, 1, 2, 0, 105, 20, 4, 1, 2, 4, 73, 30, 4, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, opts := fuzzTrace(t, data)
		a, err := New(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(tr, opts)
		if got, want := a.Analyze(), o.report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("report differs from the oracle:\ngot  %+v\nwant %+v", got, want)
		}
		if got := a.CallNames(); !reflect.DeepEqual(got, o.names) && len(got)+len(o.names) > 0 {
			t.Fatalf("call names %v, oracle %v", got, o.names)
		}
		for id := events.EventID(0); id <= events.EventID(len(data)/6+1); id++ {
			gp, gok := a.IndirectParentOf(id)
			wp, wok := o.indirectParentOf(id)
			if gp != wp || gok != wok {
				t.Fatalf("IndirectParentOf(%d) = (%d, %v), oracle (%d, %v)", id, gp, gok, wp, wok)
			}
		}
	})
}
