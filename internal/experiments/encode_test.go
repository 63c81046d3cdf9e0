package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		ID: "x", Title: "T",
		Sections: []Section{
			{
				Heading: "m1",
				Columns: []string{"app", "speedup"},
				Rows:    [][]string{{"a", "+1.0%"}, {"b, with comma", "-2.0%"}},
				Notes:   []string{"n"},
			},
			{Heading: "trace-only", Pre: "core 1 |##|"},
		},
	}
}

func TestRenderCSVRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := sampleReport().RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("output not valid CSV: %v\n%s", err, b.String())
	}
	// Header + 2 rows; the trace-only section contributes nothing.
	if len(recs) != 3 {
		t.Fatalf("records = %d: %v", len(recs), recs)
	}
	if recs[1][0] != "m1" || recs[1][1] != "a" {
		t.Fatalf("row = %v", recs[1])
	}
	if recs[2][1] != "b, with comma" {
		t.Fatalf("comma field mangled: %v", recs[2])
	}
}

func TestRenderJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := sampleReport().RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back jsonReport
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if back.ID != "x" || len(back.Sections) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Sections[1].Pre == "" {
		t.Fatal("JSON dropped the trace section")
	}
}

// TestEncodeResultWakeLatencyCompact encodes a hackbench cell, tens of
// thousands of wakeups, and checks the encoding stays small (the wake
// latency is a histogram, not its samples) and round-trips exactly.
func TestEncodeResultWakeLatencyCompact(t *testing.T) {
	res, err := Run(RunSpec{Machine: "5218", Scheduler: "nest", Governor: "schedutil",
		Workload: "micro/hackbench", Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.WakeLatency.Count(); n < 10_000 {
		t.Fatalf("only %d wakeups; the cell no longer exercises a long run", n)
	}
	raw, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= 16<<10 {
		t.Fatalf("encoding is %d bytes, want under 16 KiB", len(raw))
	}
	back, err := DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Fatal("DecodeResult→EncodeResult changed the bytes")
	}
	if back.WakeLatency.Tail() != res.WakeLatency.Tail() || back.WakeLatency.Count() != res.WakeLatency.Count() {
		t.Fatalf("round trip: tail %+v count %d, want %+v %d", back.WakeLatency.Tail(),
			back.WakeLatency.Count(), res.WakeLatency.Tail(), res.WakeLatency.Count())
	}
	t.Logf("%d wakeups encode in %d bytes", res.WakeLatency.Count(), len(raw))
}
