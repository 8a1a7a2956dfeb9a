package staticlint_test

import (
	"encoding/json"
	"testing"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/edl"
	"sgxperf/internal/perf/staticlint"
)

// TestReportJSONUsesStringEnums checks the lint report's wire form, the
// api/v1 document, renders every enum as its string name.
func TestReportJSONUsesStringEnums(t *testing.T) {
	iface, _, err := edl.Parse(staticlint.LintEDL)
	if err != nil {
		t.Fatal(err)
	}
	r := staticlint.Static(iface, staticlint.Options{})
	raw, err := apiv1.Marshal(apiv1.FromLintReport(r))
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Source   string `json:"source"`
		Findings []struct {
			Problem   string   `json:"problem"`
			Kind      string   `json:"kind"`
			Solutions []string `json:"solutions"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Source != "static" {
		t.Fatalf("source = %q", decoded.Source)
	}
	if len(decoded.Findings) == 0 {
		t.Fatal("no findings in JSON")
	}
	for _, f := range decoded.Findings {
		if f.Problem == "" || (f.Kind != "ecall" && f.Kind != "ocall") {
			t.Fatalf("finding enums not stringified: %+v", f)
		}
	}
}
