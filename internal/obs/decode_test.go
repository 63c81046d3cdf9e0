package obs

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// allEventKinds emits one fully-populated event of every wire kind, in
// the form live emission uses: gauges and slices as pointers, the rest
// as values. Kinds added later go at the end, so the fuzz seeds that
// select kinds by index keep their meaning.
func allEventKinds() []Event {
	return []Event{
		RunInfo{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "w", Scale: 0.04, Seed: 1},
		PlacementDecision{T: 4 * sim.Millisecond, Sched: "nest", Task: 7, TaskName: "h-0", Core: 3, Path: "attached", Scanned: 1, Reason: "warm", Fork: true},
		Migration{T: 5 * sim.Millisecond, Task: 7, TaskName: "h-0", From: 3, To: 4, Reason: "schedule_in"},
		NestExpand{T: 6 * sim.Millisecond, Core: 4, Primary: 2, Reserve: 1, Reason: "promote"},
		NestCompact{T: 7 * sim.Millisecond, Core: 4, Primary: 1, Reserve: 2, To: "reserve", Reason: "idle_timeout"},
		ImpatienceTrip{T: 8 * sim.Millisecond, Task: 7, TaskName: "h-0", Count: 2},
		FreqGrant{T: 9 * sim.Millisecond, Core: 3, GrantMHz: 3900, LimitMHz: 3900, ActivePhys: 2, Reason: "tick"},
		GovernorRequest{T: 9 * sim.Millisecond, Core: 3, Governor: "schedutil", Util: 0.5, SuggestMHz: 2600, FloorMHz: 1000, EnergyAware: true},
		Fault{T: 10 * sim.Millisecond, Action: "offline", Core: 2, Socket: -1, Tasks: 3},
		InvariantViolation{T: 11 * sim.Millisecond, Rule: "single_core", Detail: "task 7 on 2 cores"},
		Overload{T: 11 * sim.Millisecond, Action: "shed_codel", Class: "web", Policy: "codel:target=2ms,interval=8ms", Attempt: 1, Sojourn: 3 * sim.Millisecond},
		Fanout{T: 11 * sim.Millisecond, Action: "sub_cancel", Class: "fan", Stage: 1, Slot: 3, Attempt: 1, Cause: "hedge_lost", Width: 16, Lat: 2 * sim.Millisecond, Straggle: sim.Millisecond},
		TickBalance{T: 12 * sim.Millisecond, From: 1, To: 2, Task: 7, TaskName: "h-0", Kind2: "newidle"},
		&CoreGauge{T: 13 * sim.Millisecond, Core: 3, State: "busy", FreqMHz: 3700, Queue: 2},
		&NestGauge{T: 13 * sim.Millisecond, Primary: 4, Reserve: 2},
		&SocketGauge{T: 13 * sim.Millisecond, Socket: 0, Busy: 5, Online: 16},
		&UnderloadGauge{T: 13 * sim.Millisecond, Underload: 3},
		RunSummary{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "w", Seed: 1,
			RuntimeNS: int64(2 * sim.Second), EnergyJ: 12.5, WakeP50: 1000, WakeP95: 5000, WakeP99: 9000, WakeP999: 20000, Wakeups: 123},
		&ExecSlice{T: 14 * sim.Millisecond, End: 15 * sim.Millisecond, Core: 3, Task: 7, TaskName: "h-0", FreqMHz: 3700},
	}
}

// TestDecodeRoundTrip encodes one event of every kind to JSONL, decodes
// each line, and re-encodes: the bytes must match exactly, and the
// decoded events must be the same concrete types live emission produces
// (pointers for the gauge kinds and slices) holding equal values.
// This also forces every wire kind to have a decodable entry.
func TestDecodeRoundTrip(t *testing.T) {
	events := allEventKinds()

	var first strings.Builder
	r1 := NewJSONL(&first)
	for _, ev := range events {
		r1.Record(ev)
	}
	if err := r1.Flush(); err != nil {
		t.Fatal(err)
	}

	var second strings.Builder
	r2 := NewJSONL(&second)
	i := 0
	n, err := DecodeStream(strings.NewReader(first.String()), func(ev Event) {
		if ev.Kind() != events[i].Kind() {
			t.Fatalf("event %d decoded as %q, want %q", i, ev.Kind(), events[i].Kind())
		}
		if !reflect.DeepEqual(ev, events[i]) {
			t.Fatalf("event %d round-trip mismatch:\n got %#v\nwant %#v", i, ev, events[i])
		}
		r2.Record(ev)
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("decoded %d events, want %d", n, len(events))
	}
	if err := r2.Flush(); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("re-encode differs:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestAllEventKindsCoversDecodable fails when a decodable wire kind is
// missing from allEventKinds: the round trip above and FuzzJSONLEncode
// iterate that list, so an unlisted kind would skip both silently.
func TestAllEventKindsCoversDecodable(t *testing.T) {
	listed := map[string]bool{}
	for _, ev := range allEventKinds() {
		listed[ev.Kind()] = true
	}
	for kind := range decodable {
		if !listed[kind] {
			t.Errorf("decodable kind %q is missing from allEventKinds", kind)
		}
	}
	if len(listed) != len(decodable) {
		t.Errorf("allEventKinds lists %d kinds, decodable has %d", len(listed), len(decodable))
	}
}

func TestDecodeLineEdgeCases(t *testing.T) {
	if ev, err := DecodeLine(nil); ev != nil || err != nil {
		t.Fatalf("blank line: ev=%v err=%v", ev, err)
	}
	if ev, err := DecodeLine([]byte("  \t ")); ev != nil || err != nil {
		t.Fatalf("whitespace line: ev=%v err=%v", ev, err)
	}
	if ev, err := DecodeLine([]byte(`{"ev":"from_the_future","x":1}`)); ev != nil || err != nil {
		t.Fatalf("unknown kind must skip: ev=%v err=%v", ev, err)
	}
	if _, err := DecodeLine([]byte(`{"ev":"placement",`)); err == nil {
		t.Fatal("malformed JSON must error")
	}
	if _, err := DecodeLine([]byte(`{"ev":"placement","t_ns":"not a number"}`)); err == nil {
		t.Fatal("type mismatch must error")
	}
}

// TestDecodeStreamCountsAndSkips mixes known, unknown and blank lines.
func TestDecodeStreamCountsAndSkips(t *testing.T) {
	in := `{"ev":"migration","t_ns":1,"task":2,"from_core":0,"to_core":1}

{"ev":"mystery"}
{"ev":"nest_gauge","t_ns":2,"primary":3,"reserve":1}
`
	var got []Event
	n, err := DecodeStream(strings.NewReader(in), func(ev Event) { got = append(got, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", n)
	}
	if _, ok := got[0].(Migration); !ok {
		t.Fatalf("got[0] = %T, want Migration", got[0])
	}
	if g, ok := got[1].(*NestGauge); !ok || g.Primary != 3 {
		t.Fatalf("got[1] = %#v, want &NestGauge{Primary:3}", got[1])
	}
}
