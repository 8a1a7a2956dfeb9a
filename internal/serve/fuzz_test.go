package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// syncPagingTrace is synthTrace with sync and paging rows, so the
// report's sync prescan and paging fold have input.
func syncPagingTrace(t testing.TB, nOps int) *events.Trace {
	t.Helper()
	tr := synthTrace(t, nOps)
	tr.Ecalls.Scan(func(i int, e events.CallEvent) bool {
		if i%4 == 0 {
			tr.Syncs.Insert(events.SyncEvent{ID: e.ID + 100_000, Kind: events.SyncSleep,
				Thread: e.Thread, Time: e.Start + 10, Call: e.ID})
			tr.Syncs.Insert(events.SyncEvent{ID: e.ID + 200_000, Kind: events.SyncWake,
				Thread: 1, Targets: []sgx.ThreadID{e.Thread}, Time: e.End - 10, Call: e.ID})
		}
		if i%5 == 0 {
			tr.Paging.Insert(events.PagingEvent{ID: e.ID + 300_000, Kind: events.PageOut,
				Enclave: 1, Thread: e.Thread, Vaddr: 0x7000_0000 + uint64(i)*4096,
				PageKind: "heap", Time: e.Start + vtime.Cycles(i%7)})
		}
		return true
	})
	return tr
}

// serveRecorded runs one request through the handler.
func serveRecorded(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w
}

// checkIngested asserts a trace that was just accepted is analysable:
// /report and /stats answer 200 and agree on the statistics.
func checkIngested(t *testing.T, h http.Handler, id string) {
	t.Helper()
	rw := serveRecorded(h, "GET", "/v1/traces/"+id+"/report", nil)
	sw := serveRecorded(h, "GET", "/v1/traces/"+id+"/stats", nil)
	if rw.Code != http.StatusOK || sw.Code != http.StatusOK {
		t.Fatalf("%s: report status %d, stats status %d: %.300s %.300s",
			id, rw.Code, sw.Code, rw.Body.Bytes(), sw.Body.Bytes())
	}
	var rep apiv1.Report
	var st apiv1.StatsReport
	if err := json.Unmarshal(rw.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Stats, rep.Stats) {
		t.Fatalf("%s: /stats statistics differ from /report's", id)
	}
}

// FuzzServeIngest drives arbitrary bytes through the service's ingest
// boundary, as an upload and as an append to a registered trace: no
// panic, only an accepting or a client-error status, and whatever is
// accepted must still analyse, with /stats agreeing with /report.
func FuzzServeIngest(f *testing.F) {
	sorted := synthTrace(f, 60)
	unsorted := synthTrace(f, 60)
	reverseCalls(unsorted)
	for _, tr := range []*events.Trace{sorted, unsorted, syncPagingTrace(f, 60)} {
		f.Add(traceBytes(f, tr))
	}
	f.Add(hugeChunkLen(f))
	base := traceBytes(f, syncPagingTrace(f, 40))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Options{MaxUploadBytes: 1 << 20})
		tr, err := events.NewTrace()
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Load(bytes.NewReader(base)); err != nil {
			t.Fatal(err)
		}
		if err := s.Preload("base", tr); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		accepted := func(code, ok int) bool {
			switch code {
			case ok:
				return true
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
				return false
			}
			t.Fatalf("ingest answered status %d", code)
			return false
		}

		if w := serveRecorded(h, "POST", "/v1/traces", body); accepted(w.Code, http.StatusCreated) {
			var info apiv1.TraceInfo
			if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
				t.Fatal(err)
			}
			checkIngested(t, h, info.ID)
		}
		if w := serveRecorded(h, "POST", "/v1/traces/base/append", body); accepted(w.Code, http.StatusOK) {
			checkIngested(t, h, "base")
		}
	})
}
