package cpu

import (
	"encoding/json"
	"io"
	"testing"

	nest "repro/internal/core"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

func sampleRun(t *testing.T, hub *obs.Hub, every sim.Duration) *metrics.Result {
	t.Helper()
	spec := machine.IntelXeon6130(2)
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: 42, Obs: hub, SampleEvery: every})
	benchWorkload(m, spec)
	return m.Run(0)
}

// TestSamplerByteIdentity is the acceptance check that enabling the
// periodic gauge sampler does not change simulation results: a sampled
// run's result (minus the obs aggregates, which exist only when a hub
// does) must encode to the same bytes as an unsampled, unobserved run.
func TestSamplerByteIdentity(t *testing.T) {
	base := sampleRun(t, nil, 0)

	var buf obs.SeriesBuffer
	hub := obs.New(&buf)
	sampled := sampleRun(t, hub, 4*sim.Millisecond)
	if buf.Len() == 0 {
		t.Fatal("sampler emitted no gauges")
	}
	if sampled.Stats == nil || sampled.Stats.Counter("gauge.core") == 0 {
		t.Fatal("gauge counters missing from RunStats")
	}
	sampled.Stats = nil

	b1, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("sampling changed the simulation:\nbase:    %s\nsampled: %s", b1, b2)
	}
}

// TestSamplerDisabledAddsNoAllocs extends the zero-overhead proof to the
// sampler: with SampleEvery configured but the hub disabled (or absent),
// a run allocates exactly as much as one with no hub at all.
func TestSamplerDisabledAddsNoAllocs(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	run := func(hub *obs.Hub) float64 {
		return testing.AllocsPerRun(3, func() {
			m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: 1, Obs: hub, SampleEvery: 4 * sim.Millisecond})
			benchWorkload(m, spec)
			m.Run(0)
		})
	}
	noHub := run(nil)
	disabled := run(obs.Disabled())
	if noHub != disabled {
		t.Fatalf("disabled sampler changes allocations: none=%v disabled=%v", noHub, disabled)
	}
}

// TestObservedGaugePassAllocs holds the observed sampler to zero
// allocations per gauge: a sampled tick emits every gauge of its batch
// by pointer into a JSONL hub, whose counters are resolved handles.
func TestObservedGaugePassAllocs(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	jr := obs.NewJSONL(io.Discard)
	hub := obs.New(jr)
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: 1, Obs: hub, SampleEvery: sim.Tick})
	benchWorkload(m, spec)
	m.Run(40 * sim.Millisecond) // stop mid-run, with cores busy, queued and idle
	before := hub.Events()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { m.gaugePass(m.Now()) })
	perTick := (hub.Events() - before) / (runs + 1) // AllocsPerRun adds a warm-up call
	if want := int64(spec.Topo.NumCores() + 1 + spec.Topo.NumSockets() + 1); perTick != want {
		t.Fatalf("a sampled tick emitted %d gauges, want %d", perTick, want)
	}
	if allocs != 0 {
		t.Fatalf("a sampled tick of %d gauges allocates %v times, want 0", perTick, allocs)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestObservedSliceAllocs requires an execution slice emitted into a
// JSONL hub to allocate nothing: recordSlice fills the machine's own
// ExecSlice and emits a pointer to it, so no copy is boxed.
func TestObservedSliceAllocs(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	jr := obs.NewJSONL(io.Discard)
	hub := obs.New(jr)
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: 1, Obs: hub})
	benchWorkload(m, spec)
	m.Run(40 * sim.Millisecond)
	var cs *coreState
	for i := range m.cores {
		if m.cores[i].cur != nil {
			cs = &m.cores[i]
			break
		}
	}
	if cs == nil {
		t.Fatal("no core busy at 40 ms")
	}
	now := m.Now()
	before := hub.Events()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { m.recordSlice(cs.cur, cs.id, now-sim.Millisecond, now) })
	if got := hub.Events() - before; got != runs+1 { // AllocsPerRun adds a warm-up call
		t.Fatalf("%d calls emitted %d slices", runs+1, got)
	}
	if allocs != 0 {
		t.Fatalf("an emitted slice allocates %v times, want 0", allocs)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSamplerDisabledAddsNoEvents proves the disabled path records
// nothing even with sampling configured.
func TestSamplerDisabledAddsNoEvents(t *testing.T) {
	hub := obs.Disabled()
	sampleRun(t, hub, 4*sim.Millisecond)
	if hub.Events() != 0 {
		t.Fatalf("disabled hub recorded %d events", hub.Events())
	}
}

// TestSamplerGaugeStream validates the shape of the emitted gauge
// batches: per-batch core gauges in ascending core order covering every
// core, one socket gauge per socket with believable busy shares, nest
// gauges present under the nest policy, and monotone non-decreasing
// timestamps across batches.
func TestSamplerGaugeStream(t *testing.T) {
	var buf obs.SeriesBuffer
	hub := obs.New(&buf)
	sampleRun(t, hub, 8*sim.Millisecond)

	spec := machine.IntelXeon6130(2)
	nCores := spec.Topo.NumCores()
	nSockets := spec.Topo.NumSockets()

	if len(buf.Cores)%nCores != 0 {
		t.Fatalf("%d core gauges is not a whole number of %d-core batches", len(buf.Cores), nCores)
	}
	batches := len(buf.Cores) / nCores
	if batches < 2 {
		t.Fatalf("only %d sample batches", batches)
	}
	if len(buf.Sockets) != batches*nSockets {
		t.Fatalf("%d socket gauges, want %d", len(buf.Sockets), batches*nSockets)
	}
	if len(buf.Nests) != batches {
		t.Fatalf("%d nest gauges, want %d (nest policy active)", len(buf.Nests), batches)
	}

	var lastT sim.Time
	for i, g := range buf.Cores {
		if g.Core != i%nCores {
			t.Fatalf("core gauge %d: core=%d, want ascending order", i, g.Core)
		}
		if g.T < lastT {
			t.Fatalf("core gauge %d: time went backwards (%v after %v)", i, g.T, lastT)
		}
		lastT = g.T
		switch g.State {
		case "busy", "spin", "idle", "offline":
		default:
			t.Fatalf("core gauge %d: unknown state %q", i, g.State)
		}
		if g.Queue < 0 || g.FreqMHz < 0 {
			t.Fatalf("core gauge %d: negative queue/freq: %+v", i, g)
		}
	}
	sawBusy := false
	for _, g := range buf.Sockets {
		if g.Online < 0 || g.Busy < 0 || g.Busy > g.Online {
			t.Fatalf("socket gauge out of range: %+v", g)
		}
		if g.Busy > 0 {
			sawBusy = true
		}
	}
	if !sawBusy {
		t.Fatal("no socket ever showed a busy core during a loaded run")
	}
	for _, g := range buf.Nests {
		if g.Primary < 0 || g.Reserve < 0 {
			t.Fatalf("nest gauge out of range: %+v", g)
		}
	}
}

// TestSamplerIntervalRounding checks sub-tick intervals clamp to one
// tick and longer intervals thin the batches proportionally.
func TestSamplerIntervalRounding(t *testing.T) {
	count := func(every sim.Duration) int {
		var buf obs.SeriesBuffer
		sampleRun(t, obs.New(&buf), every)
		return len(buf.Nests) // one per batch
	}
	everyTick := count(sim.Millisecond) // < one tick: clamps to every tick
	sparse := count(16 * sim.Millisecond)
	if everyTick == 0 || sparse == 0 {
		t.Fatal("sampler produced no batches")
	}
	if everyTick < 3*sparse {
		t.Fatalf("sub-tick interval (%d batches) should sample ~4x denser than 16ms (%d)", everyTick, sparse)
	}
}
