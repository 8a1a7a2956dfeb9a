package events

import (
	"bytes"
	"reflect"
	"testing"

	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// populatedTrace builds a trace of n ecall rounds touching every table,
// including the delta-unfriendly corners: out-of-order IDs, NoEvent
// parents, negative thread IDs, empty and multi-element wake target
// lists, multi-row meta and enclave tables with EDL text.
func populatedTrace(tb testing.TB, n int) *Trace {
	tb.Helper()
	tr, err := NewTrace()
	if err != nil {
		tb.Fatal(err)
	}
	tr.Meta.Insert(
		TraceMeta{Workload: "codec-test", FrequencyHz: 2.1e9, Mitigation: "none", TransitionCycles: 13500},
		TraceMeta{Workload: "", FrequencyHz: -0.5, Mitigation: "spectre+l1tf", TransitionCycles: -1},
	)
	tr.Enclaves.Insert(
		EnclaveMeta{Enclave: 1, Name: "enc", NumPages: 256, EDL: "enclave {\n  trusted { public void ecall_a(void); };\n};\n"},
		EnclaveMeta{Enclave: 1 << 40, Name: "", NumPages: 0},
	)
	tr.Threads.Insert(
		ThreadEvent{Thread: 0, Name: "main", Time: 1},
		ThreadEvent{Thread: -1, Name: "", Time: 2},
	)
	for i := 0; i < n; i++ {
		id := EventID(i*2 + 1)
		tr.Ecalls.Insert(CallEvent{
			ID: id, Kind: KindEcall, Enclave: 1, Thread: sgx.ThreadID(i % 4),
			CallID: i % 9, Name: []string{"ecall_a", "ecall_b"}[i%2],
			Start: 1000 + 7*vtime.Cycles(i), End: 1200 + 7*vtime.Cycles(i),
			Parent: NoEvent, AEXCount: i % 3, Err: i%11 == 0,
		})
		tr.Ocalls.Insert(CallEvent{
			ID: id + 1, Kind: KindOcall, Enclave: 1, Thread: sgx.ThreadID(i % 4),
			Name: "ocall_x", Start: 1050 + 7*vtime.Cycles(i), End: 1100 + 7*vtime.Cycles(i),
			Parent: id,
		})
		if i%5 == 0 {
			tr.AEXs.Insert(AEXEvent{ID: id + 5000, Enclave: 1, Thread: 2, Time: 1010 + 7*vtime.Cycles(i), During: id})
		}
		if i%7 == 0 {
			tr.Paging.Insert(PagingEvent{ID: id + 9000, Kind: PageOut, Enclave: 1, Thread: 1,
				Vaddr: 0xfff0_0000_0000 + uint64(i)*4096, PageKind: "heap", Time: 1020 + 7*vtime.Cycles(i)})
		}
		if i%6 == 0 {
			var targets []sgx.ThreadID
			kind := SyncSleep
			if i%12 == 0 {
				kind = SyncWake
				targets = []sgx.ThreadID{0, 3}
			}
			tr.Syncs.Insert(SyncEvent{ID: id + 13000, Kind: kind, Thread: 3, Targets: targets,
				Time: 1030 + 7*vtime.Cycles(i), Call: id + 1})
		}
		if i%9 == 0 {
			tr.Switchless.Insert(SwitchlessEvent{ID: id + 17000, Kind: KindOcall, Enclave: 1,
				Thread: 2, CallID: 4, Name: "ocall_sl", Start: 1040 + 7*vtime.Cycles(i),
				End: 1045 + 7*vtime.Cycles(i), Worker: sgx.ThreadID(5 + i%2), Fallback: i%18 == 0})
		}
	}
	return tr
}

func tracesEqual(t *testing.T, a, b *Trace) {
	t.Helper()
	check := func(name string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("table %s did not round-trip", name)
		}
	}
	check("meta", a.Meta.Rows(), b.Meta.Rows())
	check("ecalls", a.Ecalls.Rows(), b.Ecalls.Rows())
	check("ocalls", a.Ocalls.Rows(), b.Ocalls.Rows())
	check("aexs", a.AEXs.Rows(), b.AEXs.Rows())
	check("paging", a.Paging.Rows(), b.Paging.Rows())
	check("syncs", a.Syncs.Rows(), b.Syncs.Rows())
	check("threads", a.Threads.Rows(), b.Threads.Rows())
	check("enclaves", a.Enclaves.Rows(), b.Enclaves.Rows())
	check("switchless", a.Switchless.Rows(), b.Switchless.Rows())
}

// TestTraceBinaryRoundTrip: a full trace survives the columnar codec.
func TestTraceBinaryRoundTrip(t *testing.T) {
	src := populatedTrace(t, 2500)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, src, dst)
	if dst.NextID() <= src.Ecalls.At(src.Ecalls.Len()-1).ID {
		t.Fatal("ID allocation did not continue past loaded events")
	}
}

// TestStreamSortKeepsSortedTables: StreamSort leaves tables already in
// stream order untouched — same storage, same ContentKey — and sorts
// one that is not.
func TestStreamSortKeepsSortedTables(t *testing.T) {
	tr := populatedTrace(t, 3000)
	key := tr.ContentKey()
	first := &tr.Ecalls.ChunkAt(0)[0]
	StreamSort(tr)
	if got := tr.ContentKey(); got != key {
		t.Fatalf("StreamSort on a sorted trace changed ContentKey %s -> %s", key, got)
	}
	if &tr.Ecalls.ChunkAt(0)[0] != first {
		t.Fatal("StreamSort rewrote an already-sorted table")
	}

	rows := tr.Ocalls.Rows()
	rows[0], rows[len(rows)-1] = rows[len(rows)-1], rows[0]
	tr.Ocalls.Replace(rows)
	StreamSort(tr)
	if got := tr.ContentKey(); got != key {
		t.Fatalf("StreamSort did not restore stream order: ContentKey %s, want %s", got, key)
	}
}
