package obs

import (
	"strings"
	"testing"

	"repro/internal/metrics"
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

// ---- TimelineRecorder edge cases ------------------------------------

func TestTimelineRecorderEmptyStream(t *testing.T) {
	tl := metrics.NewTimeline(0)
	_ = NewTimelineRecorder(tl)
	if len(tl.Instants) != 0 || len(tl.Counters) != 0 {
		t.Fatal("recorder construction must not touch the timeline")
	}
}

func TestTimelineRecorderSingleEvent(t *testing.T) {
	tl := metrics.NewTimeline(0)
	r := NewTimelineRecorder(tl)
	r.Record(PlacementDecision{T: 4 * sim.Millisecond, Sched: "nest", Path: "attached", Core: 3, Task: 7})
	if len(tl.Instants) != 1 {
		t.Fatalf("instants = %d, want 1", len(tl.Instants))
	}
	in := tl.Instants[0]
	if in.Core != 3 || in.TS != 4*sim.Millisecond || !strings.Contains(in.Name, "nest:attached") {
		t.Fatalf("instant = %+v", in)
	}
	// Events with no timeline representation must be dropped silently.
	r.Record(ImpatienceTrip{T: 5 * sim.Millisecond, Task: 7})
	r.Record(&CoreGauge{T: 5 * sim.Millisecond, Core: 0, State: "busy"})
	if len(tl.Instants) != 1 || len(tl.Counters) != 0 {
		t.Fatal("non-timeline events leaked into the timeline")
	}
}

func TestTimelineRecorderOutOfOrder(t *testing.T) {
	tl := metrics.NewTimeline(0)
	r := NewTimelineRecorder(tl)
	// Nest events can arrive out of order across cores; the recorder must
	// record them as given (the Chrome trace sorts on render).
	r.Record(NestExpand{T: 8 * sim.Millisecond, Primary: 2, Reserve: 1})
	r.Record(NestCompact{T: 3 * sim.Millisecond, Primary: 1, Reserve: 2, To: "reserve"})
	if len(tl.Counters) != 2 {
		t.Fatalf("counter samples = %d, want 2", len(tl.Counters))
	}
	if tl.Counters[0].TS != 8*sim.Millisecond || tl.Counters[1].TS != 3*sim.Millisecond {
		t.Fatalf("samples reordered: %v then %v", tl.Counters[0].TS, tl.Counters[1].TS)
	}
	if tl.Counters[1].Values["primary"] != 1 || tl.Counters[1].Values["reserve"] != 2 {
		t.Fatalf("values = %v", tl.Counters[1].Values)
	}
	r.Record(Migration{T: 1 * sim.Millisecond, Task: 7, From: 0, To: 1})
	if len(tl.Instants) != 1 || tl.Instants[0].TS != 1*sim.Millisecond {
		t.Fatalf("instants = %+v", tl.Instants)
	}
}
