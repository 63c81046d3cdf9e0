package cpu

import (
	"io"
	"testing"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// benchWorkload is a mixed fork/sleep/compute load that exercises the
// hot paths: placement, enqueue, completion, ticks, balancing.
func benchWorkload(m *Machine, spec *machine.Spec) {
	work := proc.Cycles(800*sim.Microsecond, spec.Nominal)
	for i := 0; i < 16; i++ {
		m.Spawn("blinker", proc.Repeat(200, proc.Compute{Cycles: work}, proc.Sleep{D: 2 * sim.Millisecond}))
	}
	// Loop never holds the returned slice across gen calls, so the
	// backing array is reused; only the kid's one-shot behaviour is
	// per-iteration state.
	fa := make([]proc.Action, 2)
	fa[1] = proc.WaitChildren{}
	m.Spawn("forker", proc.Loop(200, func(int) []proc.Action {
		fa[0] = proc.Fork{Name: "kid", Behavior: proc.Once(proc.Compute{Cycles: work})}
		return fa
	}))
}

// benchPolicy runs benchWorkload under the policy mk builds. newHub,
// when non-nil, gives each run its own hub, sampled every sample.
func benchPolicy(b *testing.B, mk func() sched.Policy, newHub func() *obs.Hub, sample sim.Duration) {
	spec := machine.IntelXeon6130(2)
	b.ReportAllocs()
	var events uint64
	var simNS float64
	for i := 0; i < b.N; i++ {
		var hub *obs.Hub
		if newHub != nil {
			hub = newHub()
		}
		m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: mk(), Seed: uint64(i + 1), Obs: hub, SampleEvery: sample})
		benchWorkload(m, spec)
		m.Run(0)
		events += m.Engine().Steps()
		simNS += float64(m.Now())
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	// Wall nanoseconds spent per simulated second: the headline cost
	// metric, as perfbench reports it (lower is better; independent of
	// how long each benchmark iteration happens to simulate).
	if simNS > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(simNS/float64(sim.Second)), "ns/sim_s")
	}
}

// BenchmarkRuntimeCFS measures end-to-end simulation throughput under
// the CFS policy.
func BenchmarkRuntimeCFS(b *testing.B) {
	benchPolicy(b, func() sched.Policy { return cfs.Default() }, nil, 0)
}

// BenchmarkRuntimeNest measures the same under Nest (longer searches).
func BenchmarkRuntimeNest(b *testing.B) {
	benchPolicy(b, func() sched.Policy { return nest.Default() }, nil, 0)
}

// BenchmarkRuntimeNestObsDisabled is BenchmarkRuntimeNest with a
// disabled (sink-less) observability hub attached, for comparing the
// Enabled() fast path against no hub at all.
func BenchmarkRuntimeNestObsDisabled(b *testing.B) {
	hub := obs.Disabled()
	benchPolicy(b, func() sched.Policy { return nest.Default() }, func() *obs.Hub { return hub }, 0)
}

// BenchmarkRuntimeNestObserved is BenchmarkRuntimeNest fully observed:
// every decision event and a gauge batch on every tick, encoded by a
// JSONL recorder into io.Discard. It is the observed path's cost per
// simulated second, without file I/O.
func BenchmarkRuntimeNestObserved(b *testing.B) {
	benchPolicy(b, func() sched.Policy { return nest.Default() },
		func() *obs.Hub { return obs.New(obs.NewJSONL(io.Discard)) }, sim.Tick)
}

// TestDisabledRecorderAddsNoAllocs proves the observability layer's
// zero-overhead claim: a full simulation run with a disabled hub
// allocates exactly as much as one with no hub, because every emission
// site constructs its event only inside an Obs().Enabled() guard.
func TestDisabledRecorderAddsNoAllocs(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	run := func(hub *obs.Hub) float64 {
		return testing.AllocsPerRun(3, func() {
			m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: 1, Obs: hub})
			benchWorkload(m, spec)
			m.Run(0)
		})
	}
	noHub := run(nil)
	disabled := run(obs.Disabled())
	if noHub != disabled {
		t.Fatalf("disabled hub changes allocations: none=%v disabled=%v", noHub, disabled)
	}
}

// BenchmarkNestPlacement stresses the nest policy's core-selection path
// directly: a fork storm where nearly every event is a fresh placement
// decision (SelectCoreFork over the primary nest, reserve nest and
// expansion scan). With the generation-stamp scratch buffers and cached
// topology scan orders this path should stay allocation-light; the
// allocs/op figure here is the regression guard for it.
func BenchmarkNestPlacement(b *testing.B) {
	spec := machine.IntelXeon6130(2)
	work := proc.Cycles(100*sim.Microsecond, spec.Nominal)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: uint64(i + 1)})
		for f := 0; f < 4; f++ {
			sa := make([]proc.Action, 2)
			sa[1] = proc.WaitChildren{}
			m.Spawn("storm", proc.Loop(400, func(int) []proc.Action {
				sa[0] = proc.Fork{Name: "kid", Behavior: proc.Once(proc.Compute{Cycles: work})}
				return sa
			}))
		}
		m.Run(0)
	}
}

// BenchmarkEngineOnly measures the raw event engine.
func BenchmarkEngineOnly(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		r := &engineBenchRunner{e: e}
		e.ArmAfter(&r.ev, sim.Microsecond, r)
		e.Run(0)
	}
}

// engineBenchRunner re-arms its own in-place Event until 100k firings:
// the closure-free posting pattern the runtime's hot paths use. The
// whole chain allocates a handful of objects (the runner, one engine
// node slab), independent of the event count.
type engineBenchRunner struct {
	e  *sim.Engine
	ev sim.Event
	n  int
}

func (r *engineBenchRunner) RunAt(now sim.Time) {
	r.n++
	if r.n < 100000 {
		r.e.ArmAfter(&r.ev, sim.Microsecond, r)
	}
}

// BenchmarkEnginePost is BenchmarkEngineOnly on the closure Post path:
// the same chain of self-rescheduling callbacks, but each link is a
// fresh closure. The allocs/op gap between the two benchmarks is the
// per-event cost the Runner API removes.
func BenchmarkEnginePost(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 100000 {
				e.PostAfter(sim.Microsecond, tick)
			}
		}
		e.PostAfter(sim.Microsecond, tick)
		e.Run(0)
	}
}
