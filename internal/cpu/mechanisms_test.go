package cpu

import (
	"sort"
	"testing"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestActivationBoost: a task placed on a cold core must run well above
// the machine minimum within its first sub-tick burst on Speed Shift
// hardware.
func TestActivationBoost(t *testing.T) {
	spec := machine.IntelXeon5218()
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 1})
	// 1ms of work at nominal: at the minimum frequency it would take
	// 2.3ms; with the activation boost it must take well under 2ms.
	m.Spawn("short", proc.Script(proc.Compute{Cycles: proc.Cycles(sim.Millisecond, spec.Nominal)}))
	res := m.Run(sim.Second)
	if res.Runtime > 1800*sim.Microsecond {
		t.Fatalf("cold-start task took %v; activation boost missing", res.Runtime)
	}
}

// TestBroadwellColdStartSlow: the same burst on the slow-ramping
// E7-8870 v4 stays much closer to the minimum frequency.
func TestBroadwellColdStartSlow(t *testing.T) {
	run := func(spec *machine.Spec) sim.Time {
		m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 1})
		m.Spawn("short", proc.Script(proc.Compute{Cycles: proc.Cycles(sim.Millisecond, spec.Nominal)}))
		return m.Run(sim.Second).Runtime
	}
	skl := run(machine.IntelXeon6130(2))
	bdw := run(machine.IntelE78870v4())
	// Normalise by nominal frequency (both are 2.1GHz), then Broadwell
	// must be clearly slower for the same nominal-denominated work.
	if float64(bdw) < float64(skl)*1.15 {
		t.Fatalf("Broadwell cold start (%v) not slower than Skylake (%v)", bdw, skl)
	}
}

// TestActiveWaitBarrierKeepsCoresHot: with an active-wait barrier the
// cores never look idle to the hardware between iterations, so CFS and
// the frequency model see sustained activity (the NAS situation).
func TestActiveWaitBarrierKeepsCoresHot(t *testing.T) {
	spec := machine.IntelXeon5218()
	run := func(active bool) sim.Time {
		m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 3})
		b := proc.NewBarrier("b", 8)
		b.ActiveWait = active
		work := proc.Cycles(5*sim.Millisecond, spec.Nominal)
		for i := 0; i < 8; i++ {
			jitter := sim.Duration(i) * 300 * sim.Microsecond
			m.Spawn("w", proc.Loop(30, func(j int) []proc.Action {
				return []proc.Action{
					proc.Compute{Cycles: work + proc.Cycles(jitter, spec.Nominal)},
					proc.BarrierWait{B: b},
				}
			}))
		}
		return m.Run(10 * sim.Second).Runtime
	}
	activeT := run(true)
	sleepT := run(false)
	if activeT >= sleepT {
		t.Fatalf("active wait (%v) not faster than futex wait (%v) under schedutil", activeT, sleepT)
	}
}

// TestForkStormSpreadsEvenly: a saturating fork storm must land one task
// per hardware thread across sockets (the kernel's fresh statistics),
// with no task waiting behind another.
func TestForkStormSpreadsEvenly(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	m := New(Config{Spec: spec, Gov: governor.Performance{}, Policy: cfs.Default(), Seed: 1})
	n := spec.Topo.NumCores() - 1 // master participates
	work := proc.Cycles(50*sim.Millisecond, spec.Nominal)
	var actions []proc.Action
	for i := 0; i < n; i++ {
		actions = append(actions, proc.Fork{Name: "w", Behavior: proc.Script(proc.Compute{Cycles: work})})
	}
	actions = append(actions, proc.Compute{Cycles: work}, proc.WaitChildren{})
	m.Spawn("master", proc.Script(actions...))
	res := m.Run(5 * sim.Second)
	if res.Custom["truncated"] != 0 {
		t.Fatal("truncated")
	}
	// With a perfect spread everyone computes concurrently under SMT
	// contention: ~50ms/0.62 plus fork staggering. Anything much above
	// means stacking.
	if res.Runtime > 150*sim.Millisecond {
		t.Fatalf("fork storm runtime %v indicates stacking", res.Runtime)
	}
	if p99 := res.WakeLatency.Percentile(99); p99 > 2*sim.Tick {
		t.Fatalf("fork storm p99 wake latency %v", p99)
	}
}

// TestNestKeepsSleepyThreadsOnWarmCores: the h2 pattern in miniature —
// under Nest, many low-duty threads spend far more of their busy time in
// the upper turbo buckets (warm reused cores, spin-covered gaps) and the
// run finishes faster than under CFS. Like the claim matrix, it judges
// the medians over odd seeds 1-39, not one seed: at a single seed the
// runtime gain is noise-dominated (over seeds 1-40 it was below 0 at 3
// seeds on the float model and at 5 with the current draws, medians
// +4.6% and +4.5%).
func TestNestKeepsSleepyThreadsOnWarmCores(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	run := func(mk func() sched.Policy, seed uint64) (float64, sim.Time) {
		m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: mk(), Seed: seed})
		installSleepy(m, spec)
		res := m.Run(0)
		n := len(res.FreqHist.Weight)
		top := res.FreqHist.Share(n-1) + res.FreqHist.Share(n-2) + res.FreqHist.Share(n-3)
		return top, res.Runtime
	}
	var topGain, speedup []float64
	faster := 0
	for seed := uint64(1); seed <= 39; seed += 2 {
		nestTop, nestT := run(func() sched.Policy { return nest.Default() }, seed)
		cfsTop, cfsT := run(func() sched.Policy { return cfs.Default() }, seed)
		topGain = append(topGain, nestTop-cfsTop)
		speedup = append(speedup, float64(cfsT)/float64(nestT)-1)
		if nestT < cfsT {
			faster++
		}
	}
	top, gain := medianOf(topGain), medianOf(speedup)
	t.Logf("median top-turbo share gain %+.3f, median speedup %+.2f%%, nest faster at %d of %d seeds",
		top, 100*gain, faster, len(speedup))
	if top <= 0 {
		t.Errorf("median nest top-turbo share gain %+.3f, want above 0", top)
	}
	if gain <= 0 {
		t.Errorf("median nest speedup over cfs %+.2f%%, want above 0", 100*gain)
	}
}

// medianOf returns the median of xs, which it sorts.
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func installSleepy(m *Machine, spec *machine.Spec) {
	// More threads than hardware threads, at low duty: wakes collide,
	// and the nest settles near the effective concurrency while CFS
	// keeps bouncing over every core.
	work := proc.Cycles(1500*sim.Microsecond, spec.Nominal)
	mkWorker := func() proc.Behavior {
		left := 250
		computing := false
		return func(t *proc.Task, r *sim.Rand) proc.Action {
			if left <= 0 {
				return proc.Exit{}
			}
			if !computing {
				computing = true
				return proc.Compute{Cycles: work}
			}
			computing = false
			left--
			// Heavy-tailed lock waits: long sleepers outlive the nest's
			// compaction deadline, so threads share warm cores on wake.
			return proc.Sleep{D: r.LogNormalDur(12*sim.Millisecond, 1.4)}
		}
	}
	var actions []proc.Action
	for i := 0; i < 96; i++ {
		actions = append(actions, proc.Fork{Name: "w", Behavior: mkWorker()})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn("main", proc.Script(actions...))
}
