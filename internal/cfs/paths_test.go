package cfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/sched/schedtest"
)

// TestWakeupDecisionTable walks the select_task_rq_fair decision tree
// case by case on a small, hand-laid-out machine state.
func TestWakeupDecisionTable(t *testing.T) {
	spec := machine.IntelXeon5218()
	topo := spec.Topo
	type tc struct {
		name    string
		setup   func(f *schedtest.Fake)
		prev    machine.CoreID
		waker   machine.CoreID
		sync    bool
		accept  func(got machine.CoreID, f *schedtest.Fake) bool
		explain string
	}
	cases := []tc{
		{
			name:  "idle prev fast path",
			setup: func(f *schedtest.Fake) {},
			prev:  9, waker: 0,
			accept:  func(got machine.CoreID, f *schedtest.Fake) bool { return got == 9 },
			explain: "idle previous core is always taken first",
		},
		{
			name: "prev busy, fully idle pair on die",
			setup: func(f *schedtest.Fake) {
				f.SetBusy(9, 1)
			},
			prev: 9, waker: 9,
			accept: func(got machine.CoreID, f *schedtest.Fake) bool {
				return got != 9 && topo.Socket(got) == topo.Socket(9) &&
					f.IsIdle(got) && f.IsIdle(topo.Sibling(got))
			},
			explain: "select_idle_core finds an idle physical pair on the same die",
		},
		{
			name: "sync handoff pulls to lone waker",
			setup: func(f *schedtest.Fake) {
				for _, c := range topo.SocketCores(1) {
					f.SetBusy(c, 1)
				}
				f.SetBusy(2, 1) // waker busy (it is running the wakeup)
			},
			prev: 40, waker: 2, sync: true,
			accept: func(got machine.CoreID, f *schedtest.Fake) bool {
				return topo.Socket(got) == 0
			},
			explain: "sync wakeup with a lone waker moves toward the waker's die",
		},
		{
			name: "die saturated, settles on target",
			setup: func(f *schedtest.Fake) {
				for _, c := range topo.SocketCores(0) {
					f.SetBusy(c, 1)
				}
				f.SockLoad[0] = 1
				f.SockLoad[1] = 1
			},
			prev: 3, waker: 5,
			accept: func(got machine.CoreID, f *schedtest.Fake) bool {
				// Not work conserving: must stay on the busy die.
				return topo.Socket(got) == 0
			},
			explain: "plain CFS never looks at the other die",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := schedtest.NewFake(spec)
			c.setup(f)
			p := Default()
			got := p.SelectCoreWakeup(f, schedtest.NewTask(1, c.prev, c.prev), c.waker, c.sync)
			if !c.accept(got, f) {
				t.Fatalf("%s: got core %d", c.explain, got)
			}
		})
	}
}

// TestForkNeverPicksOutOfRange fuzzes fork placement across machine
// states: the chosen core must always be a valid ID and, when any idle
// core exists on the chosen socket, the choice must be idle.
func TestForkNeverPicksOutOfRange(t *testing.T) {
	specs := []*machine.Spec{
		machine.IntelXeon5218(),
		machine.IntelE78870v4(),
		machine.AMDRyzen4650G(),
	}
	f := func(seed int64, busyMask uint64, parentRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		spec := specs[int(uint64(seed)%uint64(len(specs)))]
		topo := spec.Topo
		fake := schedtest.NewFake(spec)
		// Populate a random busy pattern with random loads.
		for c := 0; c < topo.NumCores(); c++ {
			if busyMask&(1<<(uint(c)%64)) != 0 && r.Intn(2) == 0 {
				fake.SetBusy(machine.CoreID(c), r.Float64()+0.1)
			}
		}
		parent := machine.CoreID(int(parentRaw) % topo.NumCores())
		p := Default()
		got := p.SelectCoreFork(fake, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), parent)
		if got < 0 || int(got) >= topo.NumCores() {
			return false
		}
		// If the chosen core is busy, there must be no idle core on its
		// socket with strictly lower pair load (the scan must have had a
		// reason).
		if !fake.IsIdle(got) {
			for _, c := range topo.SocketCores(topo.Socket(got)) {
				if fake.IsIdle(c) && fake.IsIdle(topo.Sibling(c)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestWakeupNeverPicksOutOfRange fuzzes the wakeup path similarly.
func TestWakeupNeverPicksOutOfRange(t *testing.T) {
	spec := machine.IntelXeon6130(4)
	topo := spec.Topo
	f := func(seed int64, prevRaw, wakerRaw uint16, sync bool, wc bool) bool {
		r := rand.New(rand.NewSource(seed))
		fake := schedtest.NewFake(spec)
		for c := 0; c < topo.NumCores(); c++ {
			if r.Intn(3) == 0 {
				fake.SetBusy(machine.CoreID(c), r.Float64())
			}
		}
		p := New(Config{WorkConservingWakeup: wc})
		prev := machine.CoreID(int(prevRaw) % topo.NumCores())
		waker := machine.CoreID(int(wakerRaw) % topo.NumCores())
		got := p.SelectCoreWakeup(fake, schedtest.NewTask(1, prev, prev), waker, sync)
		return got >= 0 && int(got) < topo.NumCores()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkConservingFindsLoneIdleCore: with exactly one idle core
// anywhere on the machine, the work-conserving wakeup must find it.
func TestWorkConservingFindsLoneIdleCore(t *testing.T) {
	spec := machine.IntelXeon6130(4)
	topo := spec.Topo
	cfg := Config{WorkConservingWakeup: true}
	for _, hole := range []machine.CoreID{0, 17, 63, 64, 100, 127} {
		f := schedtest.NewFake(spec)
		for c := 0; c < topo.NumCores(); c++ {
			if machine.CoreID(c) != hole {
				f.SetBusy(machine.CoreID(c), 1)
			}
		}
		for s := range f.SockLoad {
			f.SockLoad[s] = 32
		}
		p := New(cfg)
		got := p.SelectCoreWakeup(f, schedtest.NewTask(1, 5, 5), 5, false)
		if got != hole {
			t.Errorf("hole at %d: wakeup picked %d", hole, got)
		}
	}
}

// TestClaimsRespectedAcrossWholePath: with RespectClaims, a fully idle
// but fully claimed machine must still return a valid core (the target)
// rather than looping or panicking.
func TestClaimsRespectedAcrossWholePath(t *testing.T) {
	spec := machine.IntelXeon5218()
	f := schedtest.NewFake(spec)
	for c := 0; c < spec.Topo.NumCores(); c++ {
		f.ClaimedV[machine.CoreID(c)] = true
	}
	p := New(Config{RespectClaims: true, WorkConservingWakeup: true})
	got := p.SelectCoreWakeup(f, schedtest.NewTask(1, 7, 7), 3, false)
	if got < 0 || int(got) >= spec.Topo.NumCores() {
		t.Fatalf("invalid core %d", got)
	}
}
