package obs

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestScanBucket pins the scan-cost bucket boundaries the -explain
// histogram and nestobs report both rely on.
func TestScanBucket(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{-1, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{16, 5}, {31, 5},
		{32, 6}, {63, 6},
		{64, 7}, {1000, 7},
	}
	for _, c := range cases {
		if got := scanBucket(c.n); got != c.want {
			t.Errorf("scanBucket(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Every boundary bucket must carry a label.
	for i := 0; i < len(scanLabels); i++ {
		if scanLabels[i] == "" {
			t.Errorf("bucket %d has no label", i)
		}
	}
}

// TestExplainScanHistogram drives one decision into every bucket and
// checks each labelled row shows up with the right count.
func TestExplainScanHistogram(t *testing.T) {
	x := NewExplain()
	for _, scanned := range []int{0, 1, 3, 5, 10, 20, 40, 100} {
		x.Record(PlacementDecision{Sched: "cfs", Path: "prev", Scanned: scanned})
	}
	for i, want := range [8]int{1, 1, 1, 1, 1, 1, 1, 1} {
		if x.scan[i] != want {
			t.Errorf("scan bucket %s = %d, want %d", scanLabels[i], x.scan[i], want)
		}
	}
	var b strings.Builder
	x.WriteTo(&b)
	for _, label := range scanLabels {
		if !strings.Contains(b.String(), label) {
			t.Errorf("scan row %q missing from output", label)
		}
	}
}

// TestExplainEmpty renders an aggregator that saw nothing.
func TestExplainEmpty(t *testing.T) {
	x := NewExplain()
	var b strings.Builder
	if _, err := x.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "placement paths (0 decisions") {
		t.Fatalf("empty explain output:\n%s", b.String())
	}
}

// TestExplainOutOfOrderStamps feeds events with non-monotonic timestamps
// and checks the end stamp is the max, not the last.
func TestExplainOutOfOrderStamps(t *testing.T) {
	x := NewExplain()
	x.Record(Migration{T: 9 * sim.Millisecond})
	x.Record(Migration{T: 2 * sim.Millisecond})
	x.Record(&NestGauge{T: 5 * sim.Millisecond, Primary: 2, Reserve: 1})
	if x.end != 9*sim.Millisecond {
		t.Fatalf("end = %v, want 9ms (max, not last)", x.end)
	}
}

// TestExplainGaugeSparkline checks periodic NestGauge samples feed the
// nest-size sparkline even without expand/compact events.
func TestExplainGaugeSparkline(t *testing.T) {
	x := NewExplain()
	for i := 1; i <= 4; i++ {
		x.Record(&NestGauge{T: sim.Time(i) * sim.Millisecond, Primary: i, Reserve: 1})
	}
	var b strings.Builder
	x.WriteTo(&b)
	out := b.String()
	if !strings.Contains(out, "nest size over time") || !strings.Contains(out, "max 4") {
		t.Fatalf("gauge-fed sparkline missing:\n%s", out)
	}
}

// ---- Timeline (ChromeTrace) recorder edge cases ---------------------

func TestTimelineRecorderEmptyStream(t *testing.T) {
	ct := NewChromeTrace("", 0)
	if ct.Slices() != 0 || ct.Markers() != 0 || len(ct.sizes) != 0 || ct.Dropped() != 0 {
		t.Fatal("a new trace must hold nothing")
	}
	var b strings.Builder
	if err := ct.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"dur":0,"pid":0,"tid":0,"args":{"name":"nest-sim"}}],"displayTimeUnit":"ms"}` + "\n"
	if b.String() != want {
		t.Fatalf("empty trace = %s, want %s", b.String(), want)
	}
}

func TestTimelineRecorderSingleEvent(t *testing.T) {
	ct := NewChromeTrace("", 0)
	ct.Record(PlacementDecision{T: 4 * sim.Millisecond, Sched: "nest", Path: "attached", Core: 3, Task: 7})
	if ct.Markers() != 1 {
		t.Fatalf("markers = %d, want 1", ct.Markers())
	}
	in := ct.marks[0]
	if in.TID != 3 || in.TS != 4000 || !strings.Contains(in.Name, "nest:attached") {
		t.Fatalf("marker = %+v", in)
	}
	// Events with no trace representation must be dropped silently.
	ct.Record(ImpatienceTrip{T: 5 * sim.Millisecond, Task: 7})
	ct.Record(&CoreGauge{T: 5 * sim.Millisecond, Core: 0, State: "busy"})
	if ct.Markers() != 1 || ct.Slices() != 0 || len(ct.sizes) != 0 {
		t.Fatal("non-trace events leaked into the trace")
	}
}

func TestTimelineRecorderOutOfOrder(t *testing.T) {
	ct := NewChromeTrace("", 0)
	// Nest events can arrive out of order across cores; the recorder must
	// keep them as given.
	ct.Record(NestExpand{T: 8 * sim.Millisecond, Primary: 2, Reserve: 1})
	ct.Record(NestCompact{T: 3 * sim.Millisecond, Primary: 1, Reserve: 2, To: "reserve"})
	if len(ct.sizes) != 2 {
		t.Fatalf("counter samples = %d, want 2", len(ct.sizes))
	}
	if ct.sizes[0].TS != 8000 || ct.sizes[1].TS != 3000 {
		t.Fatalf("samples reordered: %v then %v", ct.sizes[0].TS, ct.sizes[1].TS)
	}
	if ct.sizes[1].Args["primary"] != 1.0 || ct.sizes[1].Args["reserve"] != 2.0 {
		t.Fatalf("values = %v", ct.sizes[1].Args)
	}
	ct.Record(Migration{T: 1 * sim.Millisecond, Task: 7, From: 0, To: 1})
	if ct.Markers() != 1 || ct.marks[0].TS != 1000 || ct.marks[0].TID != 1 {
		t.Fatalf("markers = %+v", ct.marks)
	}
}
