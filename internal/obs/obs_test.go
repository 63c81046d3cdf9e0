package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilHubSafe(t *testing.T) {
	var h *Hub
	if h.Enabled() {
		t.Fatal("nil hub enabled")
	}
	h.Emit(PlacementDecision{})
	h.Count("x", 1)
	if h.Snapshot() != nil || h.Events() != 0 || h.Counters() != nil {
		t.Fatal("nil hub not inert")
	}
}

func TestDisabledHub(t *testing.T) {
	h := Disabled()
	if h.Enabled() {
		t.Fatal("Disabled() hub reports Enabled")
	}
	h.Emit(PlacementDecision{Sched: "cfs", Path: "prev"})
	h.Count("x", 1)
	if h.Events() != 0 {
		t.Fatal("disabled hub recorded an event")
	}
	if h.Snapshot() != nil {
		t.Fatal("disabled hub has counters")
	}
}

func TestHubCountsAndSnapshots(t *testing.T) {
	h := New()
	if !h.Enabled() {
		t.Fatal("counter-only hub should be enabled")
	}
	h.Emit(PlacementDecision{Sched: "nest", Path: "attached"})
	h.Emit(PlacementDecision{Sched: "nest", Path: "attached"})
	h.Emit(NestExpand{})
	h.Count("smove.tick_said_fast", 3)
	snap := h.Snapshot()
	if snap["nest.attached"] != 2 || snap["nest.expand"] != 1 || snap["smove.tick_said_fast"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	if h.Events() != 3 {
		t.Fatalf("events = %d", h.Events())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var b strings.Builder
	r := NewJSONL(&b)
	h := New(r)
	h.Emit(RunInfo{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "w", Scale: 0.04, Seed: 1})
	h.Emit(PlacementDecision{T: 4 * sim.Millisecond, Sched: "nest", Task: 7, Core: 3, Path: "attached", Scanned: 1})
	h.Emit(Migration{T: 5 * sim.Millisecond, Task: 7, From: 3, To: 4, Reason: "schedule_in"})
	h.Emit(NestExpand{T: 6 * sim.Millisecond, Core: 4, Primary: 2, Reserve: 1, Reason: "promote"})
	h.Emit(NestCompact{T: 7 * sim.Millisecond, Core: 4, Primary: 1, Reserve: 2, To: "reserve", Reason: "idle_timeout"})
	h.Emit(ImpatienceTrip{T: 8 * sim.Millisecond, Task: 7, Count: 2})
	h.Emit(FreqGrant{T: 9 * sim.Millisecond, Core: 3, GrantMHz: 3900, LimitMHz: 3900, ActivePhys: 2, Reason: "tick"})
	h.Emit(GovernorRequest{T: 9 * sim.Millisecond, Core: 3, Governor: "schedutil", Util: 0.5, SuggestMHz: 2600, FloorMHz: 1000})
	h.Emit(TickBalance{T: 10 * sim.Millisecond, From: 1, To: 2, Task: 7, Kind2: "newidle"})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 9 || r.Lines() != 9 {
		t.Fatalf("lines = %d (recorder says %d)", len(lines), r.Lines())
	}
	kinds := map[string]bool{}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		ev, ok := m["ev"].(string)
		if !ok || ev == "" {
			t.Fatalf("line missing ev: %q", line)
		}
		kinds[ev] = true
	}
	if len(kinds) < 4 {
		t.Fatalf("only %d distinct event kinds: %v", len(kinds), kinds)
	}
	// Spot-check field naming on the placement line.
	var pd map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &pd); err != nil {
		t.Fatal(err)
	}
	if pd["ev"] != "placement" || pd["path"] != "attached" || pd["chosen_core"] != float64(3) {
		t.Fatalf("placement line = %v", pd)
	}
	if pd["t_ns"] != float64(4*sim.Millisecond) {
		t.Fatalf("t_ns = %v", pd["t_ns"])
	}
}

func TestWritePrometheus(t *testing.T) {
	cs := NewCounters()
	cs.Add("nest.expand", 42)
	cs.Add("cfs.idlest_group", 7)
	var b strings.Builder
	if err := WritePrometheus(&b, cs, map[string]string{"sched": "nest", "machine": "5218"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# TYPE nestsim_nest_expand_total counter",
		`nestsim_nest_expand_total{machine="5218",sched="nest"} 42`,
		`nestsim_cfs_idlest_group_total{machine="5218",sched="nest"} 7`,
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("missing %q in:\n%s", w, out)
		}
	}
	if err := WritePrometheus(&b, nil, nil); err != nil {
		t.Fatal("nil registry should be a no-op")
	}
}

func TestExplainSummary(t *testing.T) {
	x := NewExplain()
	h := New(x)
	for i := 0; i < 10; i++ {
		h.Emit(PlacementDecision{T: sim.Time(i) * sim.Millisecond, Sched: "nest", Path: "attached", Scanned: 1})
	}
	h.Emit(PlacementDecision{T: 11 * sim.Millisecond, Sched: "cfs", Path: "idlest_group", Scanned: 32, Fork: true})
	h.Emit(NestExpand{T: 2 * sim.Millisecond, Primary: 1})
	h.Emit(NestExpand{T: 3 * sim.Millisecond, Primary: 2, Reserve: 1})
	h.Emit(NestCompact{T: 8 * sim.Millisecond, Primary: 1, Reserve: 2, To: "reserve"})
	h.Emit(ImpatienceTrip{T: 9 * sim.Millisecond})
	h.Emit(Migration{T: 9 * sim.Millisecond})
	h.Emit(TickBalance{T: 10 * sim.Millisecond, Kind2: "periodic"})

	var b strings.Builder
	if _, err := x.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		"placement paths (11 decisions",
		"nest.attached",
		"cfs.idlest_group",
		"scan cost",
		"nest size over time (2 expand, 1 compact, 1 impatience trips)",
		"primary",
		"1 migrations, 1 balance pulls",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("explain output missing %q:\n%s", w, out)
		}
	}
}

func TestMultiRecorder(t *testing.T) {
	x1, x2 := NewExplain(), NewExplain()
	h := New(x1, x2)
	h.Emit(PlacementDecision{Sched: "nest", Path: "prev"})
	var b1, b2 strings.Builder
	x1.WriteTo(&b1)
	x2.WriteTo(&b2)
	if !strings.Contains(b1.String(), "nest.prev") || !strings.Contains(b2.String(), "nest.prev") {
		t.Fatal("multi recorder did not fan out")
	}
}
