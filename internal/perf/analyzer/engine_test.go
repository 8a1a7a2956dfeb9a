package analyzer_test

// One engine, one report: the ways of analysing a trace — Analyze over
// the resident trace, AnalyzeStream over a saved file and the serve
// daemon's /v1/report — must agree byte for byte on the golden fixture,
// whose late ocalls exercise the parent rule, and the engine must equal
// the brute-force oracle on traces the simulator really records.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"sgxperf"
	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/serve"
)

// lateChildren counts ocalls that start after their parent ecall ended.
func lateChildren(tr *events.Trace) int {
	ends := make(map[events.EventID]int64)
	tr.Ecalls.Scan(func(_ int, e events.CallEvent) bool {
		ends[e.ID] = int64(e.End)
		return true
	})
	n := 0
	tr.Ocalls.Scan(func(_ int, o events.CallEvent) bool {
		if end, ok := ends[o.Parent]; ok && int64(o.Start) > end {
			n++
		}
		return true
	})
	return n
}

func TestGoldenFixtureOneReport(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		tr := analyzer.GoldenTrace(t, seed, 1500)
		if lateChildren(tr) == 0 {
			t.Fatalf("seed %d: the fixture plants no late ocalls", seed)
		}
		events.StreamSort(tr)

		a, err := analyzer.New(tr, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := apiv1.Marshal(apiv1.FromReport(a.Analyze()))
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "golden.evc")
		if err := tr.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		st, err := events.OpenStreamTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		src, err := analyzer.NewStreamTraceSource(st)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analyzer.AnalyzeStream(src, analyzer.Options{})
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := apiv1.Marshal(apiv1.FromReport(rep))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed, want) {
			t.Fatalf("seed %d: AnalyzeStream over the saved file differs from Analyze", seed)
		}

		ts := httptest.NewServer(serve.New(serve.Options{}).Handler())
		var body bytes.Buffer
		if err := tr.Save(&body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/traces?id=golden", "application/octet-stream", &body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload: status %d", resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + "/v1/report")
		if err != nil {
			t.Fatal(err)
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(served, want) {
			t.Fatalf("seed %d: served /v1/report (status %d) differs from Analyze", seed, resp.StatusCode)
		}
	}
}

// TestRecordedSessionMatchesOracle checks the engine against the oracle
// on traces the logger records from the paper's workloads, in the order
// the recorder leaves them.
func TestRecordedSessionMatchesOracle(t *testing.T) {
	for _, w := range []struct {
		name string
		ops  int
	}{{"sqlite", 20}, {"talos", 20}, {"glamdring", 1}, {"amplify", 5}, {"securekeeper", 40}} {
		name := w.name
		run, err := sgxperf.RunWorkload(name, sgxperf.WorkloadOptions{Ops: w.ops, Logger: true})
		if err != nil {
			t.Fatal(err)
		}
		a, err := analyzer.New(run.Trace, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := a.Analyze()
		if got.TotalCalls() == 0 {
			t.Fatalf("%s: recorded no calls", name)
		}
		if want := analyzer.OracleReport(run.Trace, analyzer.Options{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: report differs from the oracle", name)
		}
	}
}
