package analyzer_test

// The streaming-equivalence gate: the fold must reproduce the
// brute-force oracle's report bit-for-bit through every way of feeding
// it — Analyze over the resident trace, AnalyzeStream over a resident
// trace's tables and over a saved trace file read chunk-by-chunk.

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"sgxperf/internal/edl"
	"sgxperf/internal/experiments"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
)

const streamTestEDL = `
enclave {
    trusted {
        public ecall_put();
        public ecall_get();
        ecall_del();
        ecall_tick([user_check] p);
        ecall_never_seen();
    };
    untrusted {
        ocall_write() allow(ecall_del, ecall_never_seen);
        ocall_read() allow(ecall_del);
        ocall_log();
    };
};
`

// streamTrace builds the stream-sorted synthetic trace the fold
// requires.
func streamTrace(t *testing.T, nOps int) *events.Trace {
	t.Helper()
	tr, err := experiments.SynthAnalysisTrace(nOps)
	if err != nil {
		t.Fatal(err)
	}
	events.StreamSort(tr)
	return tr
}

func TestAnalyzeStreamingMatchesResident(t *testing.T) {
	iface, _, err := edl.Parse(streamTestEDL)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts analyzer.Options
	}{
		{"default", analyzer.Options{}},
		{"enclave-filter", analyzer.Options{Enclave: sgx.EnclaveID(1)}},
		{"with-edl", analyzer.Options{Interface: iface}},
		{"edl-and-filter", analyzer.Options{Interface: iface, Enclave: sgx.EnclaveID(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := streamTrace(t, 3000)
			want := analyzer.OracleReport(tr, tc.opts)

			a, err := analyzer.New(tr, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.Analyze(); !reflect.DeepEqual(got, want) {
				t.Fatal("Analyze differs from the oracle")
			}

			// Fold fed from the resident tables.
			got, err := analyzer.AnalyzeStream(analyzer.NewTraceSource(tr), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streaming (resident-fed) report differs from the oracle:\ngot  %+v\nwant %+v", got, want)
			}

			// Fold fed from a saved file, chunk by chunk.
			path := filepath.Join(t.TempDir(), "trace.evc")
			if err := tr.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			st, err := events.OpenStreamTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			src, err := analyzer.NewStreamTraceSource(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err = analyzer.AnalyzeStream(src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streaming (file-fed) report differs from the oracle:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestAnalyzeStreamUnsorted(t *testing.T) {
	tr, err := experiments.SynthAnalysisTrace(500)
	if err != nil {
		t.Fatal(err)
	}
	// SynthAnalysisTrace interleaves threads: per-thread monotone but
	// globally unsorted, exactly the layout the fold must reject.
	_, err = analyzer.AnalyzeStream(analyzer.NewTraceSource(tr), analyzer.Options{})
	if !errors.Is(err, analyzer.ErrUnsorted) {
		t.Fatalf("AnalyzeStream on an unsorted trace: err = %v, want ErrUnsorted", err)
	}
}

func TestStreamContentKeyMatchesResident(t *testing.T) {
	tr := streamTrace(t, 800)
	path := filepath.Join(t.TempDir(), "trace.evc")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := events.OpenStreamTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := st.ContentKey(), tr.ContentKey(); got != want {
		t.Fatalf("stream ContentKey = %s, resident = %s", got, want)
	}
	if got, want := st.Rows("ecalls"), tr.Ecalls.Len(); got != want {
		t.Fatalf("stream ecall rows = %d, resident = %d", got, want)
	}
	if st.Workload() != "analyze-bench" {
		t.Fatalf("workload = %q", st.Workload())
	}
}

// foldWindowed drives FoldWindow window-by-window over src with carry
// chaining — the serve daemon's access pattern — and assembles the
// merged deltas. It reports how many windows it folded.
func foldWindowed(t *testing.T, src *analyzer.StreamSource) (*analyzer.Report, int) {
	t.Helper()
	pre, err := analyzer.PrescanSyncs(src.Syncs)
	if err != nil {
		t.Fatal(err)
	}
	swAgg, err := analyzer.FoldSwitchless(src.Switchless)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &analyzer.FoldConfig{
		Weights:    analyzer.DefaultWeights(),
		Freq:       src.Freq,
		Transition: src.Transition,
		SyncRefs:   pre.Refs,
	}
	in := analyzer.FoldInput{Ecalls: src.Ecalls, Ocalls: src.Ocalls, Paging: src.Paging}
	carry := analyzer.NewFoldCarry()
	total := analyzer.NewFoldDelta()
	windows := 0
	for k := 0; ; k++ {
		bound, more, err := analyzer.WindowBound(in, k)
		if err != nil {
			t.Fatal(err)
		}
		delta, carryOut, err := analyzer.FoldWindow(cfg, carry, in, bound, !more)
		if err != nil {
			t.Fatalf("window %d: %v", k, err)
		}
		total.MergeFrom(delta)
		carry = carryOut
		windows++
		if !more {
			break
		}
	}
	return analyzer.AssembleReport(src.Workload, cfg, total, pre,
		analyzer.SwitchlessStatsFrom(swAgg, src.Freq), src.Interface()), windows
}

// TestFoldWindowedMatchesSinglePass checks the serve daemon's windowed
// folding assembles to the same report as one final pass.
func TestFoldWindowedMatchesSinglePass(t *testing.T) {
	tr := streamTrace(t, 3000)
	want := analyzer.OracleReport(tr, analyzer.Options{})
	got, windows := foldWindowed(t, analyzer.NewTraceSource(tr))
	if windows < 2 {
		t.Fatalf("want a multi-window trace, got %d windows", windows)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windowed fold differs from the oracle:\ngot  %+v\nwant %+v", got, want)
	}
}

// rechunked serves a table's rows in chunks of a chosen size: the same
// events as stored at another evstore chunk size.
type rechunked[T any] struct{ chunks [][]T }

func rechunk[T any](t *testing.T, seq analyzer.ChunkSeq[T], size int) analyzer.ChunkSeq[T] {
	t.Helper()
	var rows []T
	for i := 0; i < seq.NumChunks(); i++ {
		c, err := seq.Chunk(i)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, c...)
	}
	var out rechunked[T]
	for len(rows) > 0 {
		n := min(size, len(rows))
		out.chunks = append(out.chunks, rows[:n:n])
		rows = rows[n:]
	}
	return out
}

func (r rechunked[T]) NumChunks() int           { return len(r.chunks) }
func (r rechunked[T]) Chunk(i int) ([]T, error) { return r.chunks[i], nil }

// TestAnalyzeChunkSizeInvariant: chunk boundaries are storage, not
// semantics. The same events served at several chunk sizes — one fold
// or one fold window per chunk — give the report Analyze gives over the
// trace's own 1024-row chunks.
func TestAnalyzeChunkSizeInvariant(t *testing.T) {
	tr := streamTrace(t, 1500)
	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := a.Analyze()
	for _, size := range []int{1, 7, 100, 4096} {
		base := analyzer.NewTraceSource(tr)
		src := *base
		src.Ecalls = rechunk(t, base.Ecalls, size)
		src.Ocalls = rechunk(t, base.Ocalls, size)
		src.Paging = rechunk(t, base.Paging, size)
		src.Syncs = rechunk(t, base.Syncs, size)
		src.Switchless = rechunk(t, base.Switchless, size)
		got, err := analyzer.AnalyzeStream(&src, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk size %d: one fold differs from Analyze", size)
		}
		got, windows := foldWindowed(t, &src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk size %d: %d fold windows differ from Analyze", size, windows)
		}
	}
}
