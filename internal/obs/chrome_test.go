package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestChromeTraceCap(t *testing.T) {
	ct := NewChromeTrace("", 2)
	for i := 0; i < 5; i++ {
		ct.Record(&ExecSlice{TaskName: "t", T: sim.Time(i), End: sim.Time(i + 1)})
	}
	if ct.Slices() != 2 || ct.Dropped() != 3 {
		t.Fatalf("slices=%d dropped=%d", ct.Slices(), ct.Dropped())
	}
}

// TestChromeTraceInstantCap checks that the cap applies to each kind
// separately and that one Dropped total counts them all.
func TestChromeTraceInstantCap(t *testing.T) {
	ct := NewChromeTrace("", 1)
	ct.Record(PlacementDecision{Sched: "nest", Path: "a"})
	ct.Record(Migration{From: 0, To: 1})
	ct.Record(NestExpand{Primary: 1})
	ct.Record(NestCompact{Primary: 0})
	if ct.Markers() != 1 || len(ct.sizes) != 1 || ct.Dropped() != 2 {
		t.Fatalf("markers=%d sizes=%d dropped=%d", ct.Markers(), len(ct.sizes), ct.Dropped())
	}
}

// TestChromeTraceKeepsSliceCopies checks the retention contract: the
// runtime reuses one ExecSlice for every slice, so the recorder must
// keep copies, not the pointer.
func TestChromeTraceKeepsSliceCopies(t *testing.T) {
	ct := NewChromeTrace("", 0)
	var s ExecSlice
	for i := 0; i < 3; i++ {
		s = ExecSlice{T: sim.Time(i), End: sim.Time(i + 1), Core: i, TaskName: "w"}
		ct.Record(&s)
	}
	for i, got := range ct.slices {
		if got.Core != i || got.T != sim.Time(i) {
			t.Fatalf("slice %d = %+v: the recorder kept the reused value", i, got)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	ct := NewChromeTrace("", 0)
	ct.Record(&ExecSlice{TaskName: "worker", Task: 3, Core: 1, T: 0, End: 2 * sim.Millisecond, FreqMHz: 3400})
	ct.Record(&ExecSlice{TaskName: "worker", Task: 3, Core: 2, T: 3 * sim.Millisecond, End: 5 * sim.Millisecond, FreqMHz: 2800})
	ct.Record(PlacementDecision{T: 3 * sim.Millisecond, Sched: "nest", Path: "primary", Core: 1})
	ct.Record(NestExpand{T: sim.Millisecond, Primary: 2})
	var b strings.Builder
	if err := ct.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &trace); err != nil {
		t.Fatalf("not valid trace JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	var sliceSeen, instantSeen, counterSeen bool
	var procName string
	threadNames := map[float64]string{}
	for _, e := range trace.TraceEvents {
		switch e["ph"] {
		case "X":
			sliceSeen = true
			if e["dur"].(float64) != 2000 { // 2ms in µs
				t.Fatalf("dur = %v", e["dur"])
			}
		case "i":
			instantSeen = true
			if e["s"] != "t" {
				t.Fatalf("instant scope = %v", e["s"])
			}
		case "C":
			counterSeen = true
		case "M":
			args, _ := e["args"].(map[string]any)
			switch e["name"] {
			case "process_name":
				procName, _ = args["name"].(string)
			case "thread_name":
				tid, _ := e["tid"].(float64)
				threadNames[tid], _ = args["name"].(string)
			}
		}
	}
	if !sliceSeen || !instantSeen || !counterSeen {
		t.Fatalf("missing events: slice=%v instant=%v counter=%v", sliceSeen, instantSeen, counterSeen)
	}
	if procName != "nest-sim" {
		t.Fatalf("process_name = %q", procName)
	}
	if threadNames[1] != "core 1" || threadNames[2] != "core 2" {
		t.Fatalf("thread names = %v", threadNames)
	}
}
