package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// oracleLine is one oracle line of FuzzJSONLRecorder's stream, with the
// core and (state, freq, queue) of a core gauge.
type oracleLine struct {
	line   []byte
	core   int
	triple string // "" for lines other than core gauges
	run    bool
}

// FuzzJSONLRecorder decodes the fuzz input into an event stream and
// sends it through obs.New(jsonl), the way a run does. Gauges and
// execution slices arrive in runs of pointers to one scratch value per
// kind, refilled for each event as the runtime refills its own,
// interleaved with the other kinds. Slice task names come from the
// counter vocabulary: a slice bumps no counter, whatever its name. The
// stream must be the encoding/json oracle lines, stopping at the first
// event the oracle cannot encode, less core gauges that wire format 2
// may leave out: each line left out must be a core gauge whose state,
// frequency and queue equal the last line written for its core since
// the last run line. The counter snapshot must equal a tally built by
// name with Add. FuzzExpandGauges checks that the lines left out can be
// restored.
func FuzzJSONLRecorder(f *testing.F) {
	f.Add([]byte{})
	// Core gauges with core numbers near 2^58: a carry table sized by
	// the core number runs out of memory here.
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

		var out bytes.Buffer
		var want []oracleLine
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
			o := oracleLine{line: line, core: -1}
			switch e := ev.(type) {
			case *CoreGauge:
				o.core, o.triple = e.Core, fmt.Sprintf("%q %d %d", e.State, e.FreqMHz, e.Queue)
			case RunInfo:
				o.run = true
			}
			want = append(want, o)
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
		lines := bytes.SplitAfter(out.Bytes(), []byte("\n"))
		lines = lines[:len(lines)-1] // the empty tail after the last newline
		if r.Lines() != len(lines) {
			t.Fatalf("Lines() = %d, stream has %d", r.Lines(), len(lines))
		}
		written := map[int]string{} // core → triple of its last written line
		for _, o := range want {
			if len(lines) > 0 && bytes.Equal(lines[0], o.line) {
				lines = lines[1:]
				if o.run {
					clear(written)
				}
				if o.triple != "" {
					written[o.core] = o.triple
				}
				continue
			}
			if o.triple == "" || written[o.core] != o.triple {
				t.Fatalf("recorder left out %s(last line written for its core: %q)", o.line, written[o.core])
			}
		}
		if len(lines) > 0 {
			t.Fatalf("recorder wrote %q, which the oracle does not have there", lines[0])
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

// fullRecorder is the full-batch encoder: one line per recorded event,
// every core gauge included.
type fullRecorder struct {
	b   []byte
	err error
}

func (f *fullRecorder) Record(ev Event) {
	if f.err == nil {
		f.b, f.err = AppendJSONL(f.b, ev)
	}
}

// expandJSONL decodes a recorded stream, expands it and re-encodes it.
func expandJSONL(t *testing.T, stream []byte) []byte {
	t.Helper()
	var got []byte
	var err error
	if _, derr := DecodeStream(bytes.NewReader(stream), ExpandGauges(func(ev Event) {
		if err == nil {
			got, err = AppendJSONL(got, ev)
		}
	})); derr != nil || err != nil {
		t.Fatalf("decode %v, encode %v", derr, err)
	}
	return got
}

// FuzzExpandGauges builds gauge batches as the sampler emits them, from
// the fuzz input: runs of 1 to 8 cores opened by RunInfo, each batch's
// cores repeating or changing their state (offline included), frequency
// and queue at random, an optional nest gauge, a socket gauge, an
// underload gauge that some batches leave out, and decisions between
// batches. It records them through obs.Multi into a JSONL recorder and
// the full-batch encoder. The recorded stream, expanded, must equal the
// full stream byte for byte, and the recorder must write exactly the
// core gauges that differ from their core's previous one, plus each
// run's first batch and core 0 after a batch without an underload gauge.
func FuzzExpandGauges(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x12, 0x01, 0x05, 0x09, 0x0d}, 20))
	f.Add(bytes.Repeat([]byte{0x37, 0xfc, 0x02, 0x40, 0x08, 0x22}, 24))
	f.Add([]byte{3, 2, 0, 5, 0xfe, 0xfe, 0xfe, 0x30, 0, 0, 0, 8, 7, 1, 0x12, 0, 0, 0, 0, 0, 0, 0, 0x12, 4, 4})
	// Two cores: a queue-only and a state-only change, a frequency-only
	// change, then a batch without an underload gauge followed by one
	// that repeats both cores: its core 0 must still be written.
	f.Add([]byte{1, 2, 0x00, 0x00, 2, 0x40, 0x04, 2, 0x50, 0x01, 0x22, 0x01, 0x01, 2, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSource{data: data}
		var out bytes.Buffer
		r := NewJSONL(&out)
		full := &fullRecorder{}
		rec := Multi(r, full)
		states := []string{"busy", "spin", "idle", "offline"}

		var g CoreGauge // one scratch value, as the sampler reuses its own
		var prev []CoreGauge
		cores := int(s.next()%8) + 1
		closed := true // the last batch ended with an underload gauge
		now := sim.Time(0)
		wantCore := 0
		for batches := 0; len(s.data) > 0 && batches < 64; {
			op := s.next()
			switch op % 8 {
			case 0:
				cores = int(s.next()%8) + 1
				rec.Record(RunInfo{Machine: "fuzz", Scheduler: "nest", Seed: uint64(op)})
				prev, closed, now = prev[:0], true, 0
			case 1:
				rec.Record(PlacementDecision{T: now, Sched: "nest", Core: int(s.next() % 8), Path: "attached"})
			default:
				batches++
				now += 4 * sim.Millisecond
				busy := 0
				for c := 0; c < cores; c++ {
					ctl := s.next()
					g = CoreGauge{T: now, Core: c, State: states[ctl>>2%4], FreqMHz: 1000 + 100*int(ctl>>4%4), Queue: int(ctl >> 6)}
					if c < len(prev) && ctl%4 != 0 {
						g.State, g.FreqMHz, g.Queue = prev[c].State, prev[c].FreqMHz, prev[c].Queue
					}
					if c >= len(prev) || c == 0 && !closed ||
						g.State != prev[c].State || g.FreqMHz != prev[c].FreqMHz || g.Queue != prev[c].Queue {
						wantCore++
					}
					if c < len(prev) {
						prev[c] = g
					} else {
						prev = append(prev, g)
					}
					if g.State == "busy" {
						busy++
					}
					rec.Record(&g)
				}
				if op&0x10 != 0 {
					rec.Record(&NestGauge{T: now, Primary: busy, Reserve: 1})
				}
				rec.Record(&SocketGauge{T: now, Socket: 0, Busy: busy, Online: cores})
				closed = op&0x20 == 0
				if closed {
					rec.Record(&UnderloadGauge{T: now, Underload: cores - busy})
				}
			}
		}
		if err := r.Flush(); err != nil || full.err != nil {
			t.Fatalf("recorder %v, full encoder %v", err, full.err)
		}
		if got := expandJSONL(t, out.Bytes()); !bytes.Equal(got, full.b) {
			t.Fatalf("expanded stream differs from the full stream:\n got %s\nwant %s\nrecorded %s", got, full.b, out.Bytes())
		}
		if n := bytes.Count(out.Bytes(), []byte(`{"ev":"core_gauge"`)); n != wantCore {
			t.Fatalf("recorder wrote %d core gauges, want %d:\n%s", n, wantCore, out.Bytes())
		}
		if n := bytes.Count(out.Bytes(), []byte("\n")); r.Lines() != n {
			t.Fatalf("Lines() = %d, stream has %d", r.Lines(), n)
		}
	})
}
