package analyzer

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sgxperf/internal/perf/events"
)

// TestAnalyzeContextUncancelled proves the context variant is a pure
// extension: with a background context it produces exactly Analyze's
// report.
func TestAnalyzeContextUncancelled(t *testing.T) {
	trace := goldenTrace(t, 7, 400)
	a, err := New(trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := a.Analyze()
	got, err := a.AnalyzeContext(context.Background())
	if err != nil {
		t.Fatalf("AnalyzeContext = %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("AnalyzeContext diverged from Analyze")
	}
}

// TestAnalyzeContextCancelled proves a done context aborts the analysis
// with ctx.Err() and a nil report.
func TestAnalyzeContextCancelled(t *testing.T) {
	trace := goldenTrace(t, 7, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := New(trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.AnalyzeContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r != nil {
		t.Error("cancelled analysis returned a report")
	}
}

// cancelAt is a ChunkSeq that cancels its context when chunk at is
// requested, counting the chunks read.
type cancelAt[T any] struct {
	ChunkSeq[T]
	at     int
	cancel context.CancelFunc
	read   *int
}

func (c cancelAt[T]) Chunk(i int) ([]T, error) {
	if i == c.at {
		c.cancel()
	}
	*c.read++
	return c.ChunkSeq.Chunk(i)
}

// TestAnalyzeContextCancelledMidFold cancels while the sweep is running:
// the fold must notice before reading the next chunk and return
// context.Canceled with no report.
func TestAnalyzeContextCancelledMidFold(t *testing.T) {
	trace := goldenTrace(t, 42, 4000)
	events.StreamSort(trace)
	src := NewTraceSource(trace)
	if n := src.Ecalls.NumChunks(); n < 3 {
		t.Fatalf("want a multi-chunk fixture, got %d ecall chunks", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	read := 0
	src.Ecalls = cancelAt[events.CallEvent]{ChunkSeq: src.Ecalls, at: 1, cancel: cancel, read: &read}
	r, err := analyzeSource(ctx, src, Options{Weights: DefaultWeights()}, nil)
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("analyzeSource = (%v, %v), want (nil, context.Canceled)", r, err)
	}
	if read != 2 {
		t.Fatalf("read %d ecall chunks after cancelling at chunk 1, want 2", read)
	}
}
