package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// marshalOracle is the reflection encoder JSONLRecorder used before the
// appendJSON methods: json.Marshal of the event struct with the kind
// spliced in as the first field. FuzzJSONLEncode holds appendJSON to it
// byte for byte.
func marshalOracle(ev Event) ([]byte, error) {
	b, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	kb, err := json.Marshal(ev.Kind())
	if err != nil {
		return nil, err
	}
	out := append([]byte(`{"ev":`), kb...)
	if len(b) > 2 {
		out = append(out, ',')
		out = append(out, b[1:len(b)-1]...)
	}
	return append(out, "}\n"...), nil
}

// Values the fuzz source picks from: the inputs where a hand-written
// encoder is most likely to part ways with encoding/json.
var (
	fuzzStrings = []string{
		"", "nest", "idle_timeout", "a&b", "x<y", "p>q", `"quoted"`, `back\slash`,
		"tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f", "line\u2028sep\u2029",
		"bad \xff\xfe utf8", "caf\u00e9 \u65e5\u672c", "\ufffd", "/slash/",
	}
	fuzzFloats = []float64{
		0, math.Copysign(0, -1), 0.5, -1.25, 12.5, 1e-6, -1e-6, 9.99e-7,
		1e-7, 1.5e-10, 5e-324, 1e20, 1e21, -1e21, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	fuzzInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, math.MaxInt32 + 1}
)

// fuzzSource decodes fuzz bytes into field values. An exhausted source
// yields zero values, so short inputs exercise omitempty.
type fuzzSource struct{ data []byte }

func (s *fuzzSource) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	c := s.data[0]
	s.data = s.data[1:]
	return c
}

func (s *fuzzSource) raw64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.next())
	}
	return v
}

func (s *fuzzSource) str() string {
	sel := s.next()
	if sel%2 == 0 {
		return fuzzStrings[int(sel/2)%len(fuzzStrings)]
	}
	n := int(s.next() % 24)
	if n > len(s.data) {
		n = len(s.data)
	}
	out := string(s.data[:n])
	s.data = s.data[n:]
	return out
}

func (s *fuzzSource) float() float64 {
	sel := s.next()
	if sel%2 == 0 {
		return fuzzFloats[int(sel/2)%len(fuzzFloats)]
	}
	return math.Float64frombits(s.raw64())
}

func (s *fuzzSource) int() int64 {
	sel := s.next()
	if sel%2 == 0 {
		return fuzzInts[int(sel/2)%len(fuzzInts)]
	}
	return int64(s.raw64())
}

// fill returns an event of ev's concrete type (a value, or a pointer to
// a fresh value) with every field drawn from s. A field kind it does not
// know fails the test, so a new event type cannot slip past the fuzzer
// with fields it never varies.
func fill(t *testing.T, ev Event, s *fuzzSource) Event {
	typ := reflect.TypeOf(ev)
	if typ.Kind() == reflect.Pointer {
		p := reflect.New(typ.Elem())
		fillStruct(t, p.Elem(), s)
		return p.Interface().(Event)
	}
	v := reflect.New(typ).Elem()
	fillStruct(t, v, s)
	return v.Interface().(Event)
}

// fillStruct sets every field of the struct v from s.
func fillStruct(t *testing.T, v reflect.Value, s *fuzzSource) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(s.str())
		case reflect.Int, reflect.Int64:
			f.SetInt(s.int())
		case reflect.Uint64:
			f.SetUint(s.raw64())
		case reflect.Float64:
			f.SetFloat(s.float())
		case reflect.Bool:
			f.SetBool(s.next()%2 == 1)
		default:
			t.Fatalf("%s.%s: field kind %s has no fuzz source", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// FuzzJSONLEncode decodes the fuzz input into field values for every
// event kind and requires appendJSON to write exactly what the
// encoding/json oracle writes, or to fail where it fails (NaN, ±Inf).
func FuzzJSONLEncode(f *testing.F) {
	f.Add([]byte{})
	// A run of one even byte 2i picks entry i of every value table for
	// every field, so the seeds alone walk each table entry.
	for i := 0; i < len(fuzzFloats); i++ {
		f.Add(bytes.Repeat([]byte{byte(2 * i)}, 256))
	}
	f.Add(bytes.Repeat([]byte{0x11, 0x08, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0}, 32))
	f.Add([]byte("\x01\x10<a href=\"x\">&amp;\xff\x0a\x24\x26\x22"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSource{data: data}
		for _, proto := range allEventKinds() {
			ev := fill(t, proto, s)
			want, werr := marshalOracle(ev)
			got, gerr := ev.appendJSON([]byte("prefix"))
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%#v: oracle error %v, appendJSON error %v", ev, werr, gerr)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("%#v: oracle error %q, appendJSON error %q", ev, werr, gerr)
				}
				continue
			}
			if !bytes.HasPrefix(got, []byte("prefix")) {
				t.Fatalf("%#v: appendJSON clobbered its prefix: %q", ev, got)
			}
			if got = got[len("prefix"):]; !bytes.Equal(got, want) {
				t.Fatalf("%#v:\nappendJSON %s\noracle     %s", ev, got, want)
			}
		}
	})
}

// TestJSONLStickyFloatError checks that an unencodable float fails the
// recorder without writing any part of its line, and that the error
// sticks: later events are dropped and Flush reports it.
func TestJSONLStickyFloatError(t *testing.T) {
	for _, bad := range []Event{
		RunInfo{Machine: "m", Scale: math.NaN()},
		GovernorRequest{Governor: "schedutil", Util: math.Inf(1)},
		RunSummary{Machine: "m", EnergyJ: math.Inf(-1)},
	} {
		var buf strings.Builder
		r := NewJSONL(&buf)
		r.Record(&NestGauge{T: 1, Primary: 2, Reserve: 3})
		r.Record(bad)
		r.Record(&NestGauge{T: 2, Primary: 2, Reserve: 3})
		err := r.Flush()
		if _, ok := err.(*json.UnsupportedValueError); !ok {
			t.Fatalf("%T: Flush error %v, want *json.UnsupportedValueError", bad, err)
		}
		if want := "{\"ev\":\"nest_gauge\",\"t_ns\":1,\"primary\":2,\"reserve\":3}\n"; buf.String() != want {
			t.Fatalf("%T: wrote %q, want only the line before the failure %q", bad, buf.String(), want)
		}
		if r.Lines() != 1 {
			t.Fatalf("%T: Lines() = %d, want 1", bad, r.Lines())
		}
	}
}

// TestJSONLRecordAllocFree requires Record of an already-boxed event to
// allocate nothing. Each run records enough lines to cross several
// buffer flushes, so an allocation at a buffer boundary cannot hide in
// the per-run average.
func TestJSONLRecordAllocFree(t *testing.T) {
	r := NewJSONL(io.Discard)
	var ev Event = &CoreGauge{T: 4 * sim.Millisecond, Core: 17, State: "busy", FreqMHz: 3900, Queue: 2}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1000; i++ {
			r.Record(ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 Records allocate %v times, want 0", allocs)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Names the stream fuzzer substitutes into counter-naming fields, so
// that the actions Overload and Fanout switch on turn up, and so that
// names built by different events collide ("fault" + "." + "x" is also
// the Fault counter "fault.x").
var fuzzNameParts = []string{
	"", "x", "cfs", "nest", "fault", "gauge", "core", "a.b", "b.c", "a",
	"completed", "retry", "shed_full", "shed_codel", "timeout_queue", "timeout_served",
	"sub_done", "sub_cancel", "sub_timeout", "hedge", "stage_done", "hedge_lost",
	"periodic", "newidle",
}

// nameFields are the string fields the counters build names from.
var nameFields = []string{"Sched", "Path", "Action", "Class", "Cause", "Kind2", "Rule"}

// counterNames is the counter oracle: the names an event bumps, built
// by concatenation as the registry once built them on every event.
func counterNames(t *testing.T, ev Event) []string {
	switch e := ev.(type) {
	case RunInfo:
		return []string{"runs"}
	case PlacementDecision:
		return []string{e.Sched + "." + e.Path}
	case Migration:
		return []string{"cpu.migration"}
	case NestExpand:
		return []string{"nest.expand"}
	case NestCompact:
		return []string{"nest.compact"}
	case ImpatienceTrip:
		return []string{"nest.impatience"}
	case FreqGrant:
		return []string{"freq.grant"}
	case GovernorRequest:
		return []string{"gov.request"}
	case Fault:
		return []string{"fault." + e.Action}
	case InvariantViolation:
		return []string{"invariant.violation", "invariant." + e.Rule}
	case Overload:
		switch {
		case strings.HasPrefix(e.Action, "shed"):
			return []string{"ovl.shed", "ovl.shed." + e.Class, "ovl." + e.Action}
		case strings.HasPrefix(e.Action, "timeout"):
			return []string{"ovl.timeout", "ovl.timeout." + e.Class, "ovl." + e.Action}
		case e.Action == "retry":
			return []string{"ovl.retry", "ovl.retry." + e.Class}
		case e.Action == "completed":
			return []string{"ovl.completed", "ovl.completed." + e.Class}
		}
		return []string{"ovl." + e.Action}
	case Fanout:
		switch e.Action {
		case "sub_done":
			if e.Attempt > 0 {
				return []string{"fan.sub_done", "fan.hedge_win"}
			}
			return []string{"fan.sub_done"}
		case "sub_cancel":
			return []string{"fan.sub_cancel", "fan.cancel." + e.Cause}
		case "hedge":
			return []string{"fan.hedge"}
		}
		return []string{"fan." + e.Action}
	case TickBalance:
		return []string{"cpu.balance." + e.Kind2}
	case *CoreGauge:
		return []string{"gauge.core"}
	case *NestGauge:
		return []string{"gauge.nest"}
	case *SocketGauge:
		return []string{"gauge.socket"}
	case *UnderloadGauge:
		return []string{"gauge.underload"}
	case RunSummary:
		return []string{"summaries"}
	case *ExecSlice:
		return nil
	}
	t.Fatalf("%T has no counter oracle", ev)
	return nil
}

// FuzzJSONLRecorder decodes the fuzz input into an event stream and
// sends it through obs.New(jsonl), the way a run does. Gauges and
// execution slices arrive in runs of pointers to one scratch value per
// kind, refilled for each event as the runtime refills its own,
// interleaved with the other kinds. Slice task names come from the
// counter vocabulary: a slice bumps no counter, whatever its name. The
// stream must equal the concatenated encoding/json oracle lines,
// stopping at the first event the oracle cannot encode, and the
// counter snapshot must equal a tally built by name with Add.
func FuzzJSONLRecorder(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x8d, 0x05, 0x02}, 64))
	for k := 0; k < len(allEventKinds()); k++ {
		f.Add(bytes.Repeat([]byte{byte(k), 0x03, 0x10}, 40))
	}
	// A placement "fault"+"x" and a Fault "x" share the name "fault.x".
	collide := []byte{1, 8, 0, 8, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 2, 0, 0, 0, 0, 0, 0, 0, 0, 8, 2}
	f.Add(collide)
	// A run of 16 slices (the last kind) named "fault", then the
	// collision above: the slices must add no counter to it.
	run := []byte{0x80 | byte(len(allEventKinds())-1), 15}
	run = append(run, bytes.Repeat([]byte{2, 4, 6, 8, 0, 10, 0, 4}, 16)...)
	f.Add(append(run, collide...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSource{data: data}
		protos := allEventKinds()
		scratch := make([]Event, len(protos))
		for i, p := range protos {
			if typ := reflect.TypeOf(p); typ.Kind() == reflect.Pointer {
				scratch[i] = reflect.New(typ.Elem()).Interface().(Event)
			}
		}

		var out, want bytes.Buffer
		r := NewJSONL(&out)
		h := New(r)
		tally := NewCounters()
		failed := false
		emit := func(ev Event) {
			h.Emit(ev)
			for _, name := range counterNames(t, ev) {
				tally.Add(name, 1)
			}
			if failed {
				return
			}
			line, err := marshalOracle(ev)
			if err != nil {
				failed = true
				return
			}
			want.Write(line)
		}
		for n := 0; len(s.data) > 0 && n < 512; n++ {
			sel := s.next()
			k := int(sel&0x7f) % len(protos)
			repeat := 1
			if sel&0x80 != 0 {
				repeat = int(s.next()%16) + 1
			}
			for i := 0; i < repeat; i++ {
				var ev Event
				if p := scratch[k]; p != nil {
					v := reflect.ValueOf(p).Elem()
					fillStruct(t, v, s)
					if fv := v.FieldByName("TaskName"); fv.IsValid() && s.next()%2 == 0 {
						fv.SetString(fuzzNameParts[int(s.next())%len(fuzzNameParts)])
					}
					ev = p
				} else {
					v := reflect.New(reflect.TypeOf(protos[k])).Elem()
					fillStruct(t, v, s)
					for _, name := range nameFields {
						if fv := v.FieldByName(name); fv.IsValid() && s.next()%2 == 0 {
							fv.SetString(fuzzNameParts[int(s.next())%len(fuzzNameParts)])
						}
					}
					ev = v.Interface().(Event)
				}
				emit(ev)
			}
		}

		err := r.Flush()
		if failed != (err != nil) {
			t.Fatalf("oracle failed: %v, recorder error: %v", failed, err)
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("stream differs from the oracle:\n got %s\nwant %s", out.Bytes(), want.Bytes())
		}
		snap, tallied := h.Snapshot(), tally.Snapshot()
		for _, name := range tally.Names() {
			if snap[name] != tallied[name] {
				t.Errorf("counter %q = %d, by-name tally %d", name, snap[name], tallied[name])
			}
		}
		if got, want := h.Counters().Names(), tally.Names(); !reflect.DeepEqual(got, want) {
			t.Fatalf("counter names differ:\n got %q\nwant %q", got, want)
		}
	})
}
