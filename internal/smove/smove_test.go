package smove

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/sched/schedtest"
)

func TestTriggersOnColdCoreWithFastWaker(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	waker := machine.CoreID(0)
	f.SetBusy(waker, 1.0)
	f.TickF[waker] = spec.MaxTurbo()
	// All idle cores report a cold tick sample (machine min by default),
	// so the CFS pick looks slow and Smove redirects to the waker.
	p := Default()
	task := schedtest.NewTask(1, proc.NoCore, proc.NoCore)
	got := p.SelectCoreFork(f, nil, task, waker)
	if got != waker {
		t.Fatalf("smove placed on %d, want waker core %d", got, waker)
	}
	if len(f.Moves) != 1 {
		t.Fatalf("moves = %d, want 1 fallback timer", len(f.Moves))
	}
	if f.Moves[0].To == waker {
		t.Fatal("fallback timer points at the waker core")
	}
	if f.Moves[0].Delay != moveDelay {
		t.Fatalf("delay = %v", f.Moves[0].Delay)
	}
}

func TestDoesNotTriggerWhenTickSampleLooksFast(t *testing.T) {
	// The paper's explanation for Smove's weak results (§5.2): a core
	// that just went idle still shows a high frequency at the last tick,
	// so Smove believes the CFS choice is fine.
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	waker := machine.CoreID(0)
	f.SetBusy(waker, 1.0)
	f.TickF[waker] = spec.MaxTurbo()
	// Every core's lagging tick sample claims max turbo.
	for c := 0; c < spec.Topo.NumCores(); c++ {
		f.TickF[machine.CoreID(c)] = spec.MaxTurbo()
	}
	p := Default()
	task := schedtest.NewTask(1, proc.NoCore, proc.NoCore)
	got := p.SelectCoreFork(f, nil, task, waker)
	if got == waker {
		t.Fatal("smove redirected although the tick sample looked fast")
	}
	if len(f.Moves) != 0 {
		t.Fatal("fallback timer armed without a redirect")
	}
}

func TestDoesNotTriggerWhenWakerSlow(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	waker := machine.CoreID(0)
	f.SetBusy(waker, 1.0)
	f.TickF[waker] = spec.Min // waker itself is slow
	p := Default()
	task := schedtest.NewTask(1, proc.NoCore, proc.NoCore)
	got := p.SelectCoreFork(f, nil, task, waker)
	if got == waker {
		t.Fatal("smove redirected to a slow waker core")
	}
}

func TestWakeupPathAlsoApplies(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	waker := machine.CoreID(0)
	f.SetBusy(waker, 1.0)
	f.TickF[waker] = spec.MaxTurbo()
	prev := machine.CoreID(9)
	p := Default()
	task := schedtest.NewTask(1, prev, prev)
	got := p.SelectCoreWakeup(f, task, waker, false)
	// CFS picks the idle prev core (cold tick sample) -> redirect.
	if got != waker {
		t.Fatalf("wakeup smove placed on %d, want waker %d", got, waker)
	}
	if len(f.Moves) != 1 || f.Moves[0].To != prev {
		t.Fatalf("fallback should target CFS choice %d, moves=%v", prev, f.Moves)
	}
}

func TestNoRedirectWhenChosenIsWaker(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	waker := machine.CoreID(0)
	// Waker idle: CFS may choose it outright; Smove must not arm a timer.
	p := Default()
	task := schedtest.NewTask(1, waker, waker)
	got := p.SelectCoreWakeup(f, task, waker, true)
	if got != waker {
		t.Fatalf("got %d", got)
	}
	if len(f.Moves) != 0 {
		t.Fatal("timer armed for self-placement")
	}
}
