package events

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sgxperf/internal/evstore"
)

// drainStream reads every chunk a cursor opener's cursor yields,
// returning the first error.
func drainStream[T any](open func() (*evstore.StreamCursor[T], error)) error {
	cur, err := open()
	if err != nil {
		return err
	}
	for {
		rows, err := cur.Next()
		if err != nil || rows == nil {
			return err
		}
	}
}

// FuzzTraceLoad drives the trace-bytes boundary with the full schema's
// codecs: arbitrary bytes go to Trace.Load and, through a file, to
// OpenStreamTrace and every one of its cursors. Neither may panic, and a
// trace that loads must survive Save → Load with equal tables.
func FuzzTraceLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("sgxperf-evc\x03\x09\x04meta"))
	var buf bytes.Buffer
	if err := populatedTrace(f, 40).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTrace()
		if err != nil {
			t.Fatal(err)
		}
		loadErr := tr.Load(bytes.NewReader(data))

		path := filepath.Join(t.TempDir(), "trace.evc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := OpenStreamTrace(path); err == nil {
			_ = drainStream(st.Ecalls)
			_ = drainStream(st.Ocalls)
			_ = drainStream(st.AEXs)
			_ = drainStream(st.Paging)
			_ = drainStream(st.Syncs)
			_ = drainStream(st.Threads)
			_ = drainStream(st.Switchless)
			st.Close()
		}

		if loadErr != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Save(&out); err != nil {
			t.Fatalf("save of a loaded trace: %v", err)
		}
		re, err := NewTrace()
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Load(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("reload of a saved trace: %v", err)
		}
		tracesEqual(t, tr, re)
	})
}
