package cfs

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/sched/schedtest"
)

func TestForkPrefersColdCoreOverWarm(t *testing.T) {
	// The paper's core CFS observation (§2.1/§5.2): a recently used idle
	// core carries residual load, so fork picks a long-idle one instead.
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	parent := machine.CoreID(0)
	f.SetBusy(parent, 1.0)
	// Core 1 just went idle: loadavg still high. Core 2 is cold.
	f.Load[1] = 0.8
	f.Load[2] = 0.0
	p := Default()
	got := p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), parent)
	if got == 1 {
		t.Fatal("fork picked the warm core; CFS should disperse to a cold one")
	}
	if spec.Topo.Socket(got) != spec.Topo.Socket(parent) {
		t.Fatalf("fork left the home socket without load pressure: got core %d", got)
	}
}

func TestForkWrapOrderFromParent(t *testing.T) {
	// Equal-load candidates are taken in numerical order starting from
	// the forking core.
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	parent := machine.CoreID(5)
	f.SetBusy(parent, 1.0)
	p := Default()
	got := p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), parent)
	// Parent's physical core is loaded; the next physical core in wrap
	// order is core 6 (phys 6).
	if got != 6 {
		t.Fatalf("fork chose core %d, want 6 (next in wrap order)", got)
	}
}

func TestForkStaysHomeWithinImbalance(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	f := schedtest.NewFake(spec)
	f.SockRun[0] = 2 // home slightly loaded, within the NUMA allowance
	f.SockRun[1] = 0
	p := Default()
	got := p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), 0)
	if spec.Topo.Socket(got) != 0 {
		t.Fatalf("fork spilled to socket %d despite allowed imbalance", spec.Topo.Socket(got))
	}
}

func TestForkSpillsWhenHomeOverloaded(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	f := schedtest.NewFake(spec)
	f.SockRun[0] = 8
	f.SockRun[1] = 0
	p := Default()
	got := p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), 0)
	if spec.Topo.Socket(got) != 1 {
		t.Fatalf("fork stayed on overloaded socket (core %d)", got)
	}
}

func TestForkAvoidsBusyHyperthreadPairs(t *testing.T) {
	// The idlest *physical* core is chosen: a fully idle pair beats one
	// whose sibling is busy.
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	parent := machine.CoreID(0)
	f.SetBusy(parent, 1.0)
	// Make cores 1..3's siblings busy (cores 33..35).
	for c := machine.CoreID(33); c <= 35; c++ {
		f.SetBusy(c, 1.0)
	}
	p := Default()
	got := p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), parent)
	if got >= 1 && got <= 3 {
		t.Fatalf("fork chose core %d whose hyperthread is busy", got)
	}
}

func TestWakeupPrevIdleFastPath(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	p := Default()
	task := schedtest.NewTask(1, 7, 3)
	got := p.SelectCoreWakeup(f, task, 20, false)
	if got != 7 {
		t.Fatalf("wakeup chose %d, want idle previous core 7", got)
	}
}

func TestWakeupScansDieOnly(t *testing.T) {
	// With the previous core's whole die busy, plain CFS settles on that
	// die rather than looking at the other socket: not work conserving.
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	for _, c := range spec.Topo.SocketCores(0) {
		f.SetBusy(c, 1.0)
	}
	// Keep socket loads equal so wake_affine doesn't pull to the waker.
	f.SockLoad[0] = 2
	f.SockLoad[1] = 2
	p := Default()
	task := schedtest.NewTask(1, 3, 3) // prev core 3 on socket 0
	got := p.SelectCoreWakeup(f, task, 5, false)
	if spec.Topo.Socket(got) != 0 {
		t.Fatalf("plain CFS wakeup examined another die (core %d)", got)
	}
}

func TestWakeupWorkConservingExtension(t *testing.T) {
	// Same situation with Nest's extension: the idle core on the other
	// socket is found.
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	for _, c := range spec.Topo.SocketCores(0) {
		f.SetBusy(c, 1.0)
	}
	f.SockLoad[0] = 2
	f.SockLoad[1] = 2
	p := New(Config{WorkConservingWakeup: true})
	task := schedtest.NewTask(1, 3, 3)
	got := p.SelectCoreWakeup(f, task, 5, false)
	if spec.Topo.Socket(got) != 1 {
		t.Fatalf("work-conserving wakeup stayed on busy die (core %d)", got)
	}
	if !f.IsIdle(got) {
		t.Fatalf("work-conserving wakeup picked busy core %d", got)
	}
}

func TestWakeupSyncAffine(t *testing.T) {
	// A synchronous wakeup with a lone waker pulls the wakee to the
	// waker's core when the prev core is busy.
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	prev := machine.CoreID(40)
	f.SetBusy(prev, 1.0)
	waker := machine.CoreID(2)
	f.SetBusy(waker, 1.0)
	// Busy out the rest of socket 1 so prev's die has no idle core...
	for _, c := range spec.Topo.SocketCores(1) {
		f.SetBusy(c, 1.0)
	}
	p := Default()
	task := schedtest.NewTask(1, prev, prev)
	got := p.SelectCoreWakeup(f, task, waker, true)
	if spec.Topo.Socket(got) != spec.Topo.Socket(waker) {
		t.Fatalf("sync wakeup did not move toward waker (got %d)", got)
	}
}

func TestWakeupFullyIdlePairPreferred(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	prev := machine.CoreID(0)
	f.SetBusy(prev, 1.0)
	// Core 1 idle but sibling (33) busy; core 2 and sibling (34) idle.
	f.SetBusy(33, 1.0)
	p := Default()
	task := schedtest.NewTask(1, prev, prev)
	got := p.SelectCoreWakeup(f, task, prev, false)
	if got != 2 {
		t.Fatalf("wakeup chose %d, want 2 (fully idle physical core)", got)
	}
}

func TestWakeupFallsBackToHyperthread(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	// Everything on socket 0 busy except core 32 (sibling of 0).
	for _, c := range spec.Topo.SocketCores(0) {
		if c != 32 {
			f.SetBusy(c, 1.0)
		}
	}
	// Equal socket loads; scan limit will pass over core 32 only if it
	// is beyond the limited scan... place prev at 8 so the limited scan
	// window (6) misses 32.
	f.SockLoad[0] = 2
	f.SockLoad[1] = 2
	p := Default()
	task := schedtest.NewTask(1, 8, 8)
	got := p.SelectCoreWakeup(f, task, 8, false)
	// Hyperthread of target (8) is 40, busy; accepted fallbacks are the
	// sibling (if idle) or the target itself; core 32 is only reachable
	// via the full idle-pair scan, whose pair (0) is busy.
	if got != 8 && got != 32 {
		t.Fatalf("fallback chose %d", got)
	}
}

func TestSearchCostCharged(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), 0)
	if f.Examined == 0 || f.Fixed == 0 {
		t.Fatal("fork charged no search cost")
	}
	before := f.Examined
	task := schedtest.NewTask(2, 3, 3)
	p.SelectCoreWakeup(f, task, 0, false)
	if f.Examined <= before {
		t.Fatal("wakeup charged no search cost")
	}
}
