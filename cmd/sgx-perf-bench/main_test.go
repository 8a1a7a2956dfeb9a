package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sgxperf/internal/experiments"
)

// TestContentionWriteKeepsOtherSections checks that writing contention
// results into a results file keeps the sections other experiments
// merged in, replaces the previous contention fields (dropping a stale
// baseline) and stays readable as the next run's baseline.
func TestContentionWriteKeepsOtherSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	old := `{"analyze": {"events": 7}, "benchmark": "logger_contention", "ops_per_thread": 1,
		"rows": [{"threads": 1}], "baseline": [{"threads": 1}], "speedup_vs_baseline": {"threads=1": 2}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	res := contentionResults{
		Benchmark:    "logger_contention",
		OpsPerThread: 2000,
		Repeats:      2,
		Rows:         []experiments.ContentionRow{{Threads: 4, EventsPerSec: 1e6}},
	}
	if err := mergeJSONFields(path, res); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	var analyze struct{ Events int }
	if err := json.Unmarshal(obj["analyze"], &analyze); err != nil || analyze.Events != 7 {
		t.Errorf("analyze section = %s (%v), want it kept", obj["analyze"], err)
	}
	for _, stale := range []string{"baseline", "speedup_vs_baseline"} {
		if _, ok := obj[stale]; ok {
			t.Errorf("stale %q from the previous run survived", stale)
		}
	}
	if got := string(obj["ops_per_thread"]); got != "2000" {
		t.Errorf("ops_per_thread = %s, want 2000", got)
	}
	rows, err := readContentionBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Threads != 4 {
		t.Errorf("baseline rows = %+v, want the new sweep", rows)
	}
}
