package obs

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSeriesBufferOrderAndJSONL checks the buffer keeps only gauges, in
// emission order, and that WriteJSONL is byte-identical to what a
// JSONLRecorder would have produced for the gauge subset.
func TestSeriesBufferOrderAndJSONL(t *testing.T) {
	var buf SeriesBuffer
	var want strings.Builder
	wantRec := NewJSONL(&want)

	h := New(&buf)
	emitGauge := func(ev Event) {
		h.Emit(ev)
		wantRec.Record(ev)
	}
	// Interleave the four gauge kinds with events the buffer must drop.
	for i := 0; i < 3; i++ {
		tm := sim.Time(i) * sim.Millisecond
		h.Emit(PlacementDecision{T: tm, Sched: "nest", Path: "attached"})
		emitGauge(&CoreGauge{T: tm, Core: 0, State: "busy", FreqMHz: 2600, Queue: i})
		emitGauge(&CoreGauge{T: tm, Core: 1, State: "idle"})
		emitGauge(&NestGauge{T: tm, Primary: i + 1, Reserve: 1})
		emitGauge(&SocketGauge{T: tm, Socket: 0, Busy: 1, Online: 2})
		emitGauge(&UnderloadGauge{T: tm, Underload: i})
		h.Emit(Migration{T: tm, Task: 9, From: 0, To: 1})
	}
	if err := wantRec.Flush(); err != nil {
		t.Fatal(err)
	}

	if buf.Len() != 15 {
		t.Fatalf("Len = %d, want 15 (gauges only)", buf.Len())
	}
	if len(buf.Cores) != 6 || len(buf.Nests) != 3 || len(buf.Sockets) != 3 || len(buf.Underloads) != 3 {
		t.Fatalf("typed slices: %d cores, %d nests, %d sockets, %d underloads",
			len(buf.Cores), len(buf.Nests), len(buf.Sockets), len(buf.Underloads))
	}

	var got strings.Builder
	if err := buf.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteJSONL differs from live JSONL:\n%s\nvs\n%s", got.String(), want.String())
	}

	// Each must visit in the same emission order.
	var kinds []string
	buf.Each(func(ev Event) { kinds = append(kinds, ev.Kind()) })
	wantKinds := []string{
		"core_gauge", "core_gauge", "nest_gauge", "socket_gauge", "underload_gauge",
		"core_gauge", "core_gauge", "nest_gauge", "socket_gauge", "underload_gauge",
		"core_gauge", "core_gauge", "nest_gauge", "socket_gauge", "underload_gauge",
	}
	if strings.Join(kinds, ",") != strings.Join(wantKinds, ",") {
		t.Fatalf("Each order = %v", kinds)
	}
}

// TestGaugeCounters checks the gauge events bump their registry names.
func TestGaugeCounters(t *testing.T) {
	h := New()
	h.Emit(&CoreGauge{Core: 1, State: "busy"})
	h.Emit(&CoreGauge{Core: 2, State: "idle"})
	h.Emit(&NestGauge{Primary: 1})
	h.Emit(&SocketGauge{Socket: 0, Online: 2})
	h.Emit(&UnderloadGauge{Underload: 3})
	h.Emit(RunSummary{Workload: "w"})
	snap := h.Snapshot()
	if snap["gauge.core"] != 2 || snap["gauge.nest"] != 1 || snap["gauge.socket"] != 1 ||
		snap["gauge.underload"] != 1 || snap["summaries"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}
