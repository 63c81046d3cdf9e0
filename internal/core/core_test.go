package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/sched/schedtest"
	"repro/internal/sim"
)

func spec5218() *machine.Spec { return machine.IntelXeon5218() }

func TestForkReusesParentCore_PrimaryGrowth(t *testing.T) {
	// First placement falls back to CFS (empty nests) and puts the core
	// in the reserve; the nests grow as cores prove useful.
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	parent := machine.CoreID(4)
	f.SetBusy(parent, 1.0)

	c1 := p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), parent)
	if p.InPrimary(c1) {
		t.Fatal("CFS-selected core went straight to primary")
	}
	if !p.InReserve(c1) {
		t.Fatal("CFS-selected core not placed in reserve")
	}

	// Second fork: the reserve core is idle, gets selected and promoted.
	c2 := p.SelectCoreFork(f, nil, schedtest.NewTask(2, proc.NoCore, proc.NoCore), parent)
	if c2 != c1 {
		t.Fatalf("second fork chose %d, want reserve core %d", c2, c1)
	}
	if !p.InPrimary(c1) || p.InReserve(c1) {
		t.Fatal("reserve core not promoted to primary on selection")
	}
}

func TestPrimarySearchIgnoresLoadAverage(t *testing.T) {
	// Unlike CFS, Nest selects any idle primary core regardless of its
	// recent load (§3.1).
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	now := sim.Time(100 * sim.Millisecond)
	f.NowV = now
	p.ensure(f, 0)
	p.addPrimary(3, now, "test") // recently used, still warm
	f.Load[3] = 0.95             // high residual load
	got := p.SelectCoreWakeup(f, schedtest.NewTask(1, 3, proc.NoCore), 0, false)
	if got != 3 {
		t.Fatalf("nest skipped warm core 3 (got %d)", got)
	}
}

func TestAttachedCoreFirstChoice(t *testing.T) {
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	f.NowV = 50 * sim.Millisecond
	p.ensure(f, 0)
	p.addPrimary(2, f.NowV, "test")
	p.addPrimary(9, f.NowV, "test")
	// Task attached to core 9 (two executions there); search from ref 0
	// would find core 2 first, but attachment wins.
	task := schedtest.NewTask(1, 9, 9)
	got := p.SelectCoreWakeup(f, task, 0, false)
	if got != 9 {
		t.Fatalf("attached task placed on %d, want 9", got)
	}
}

func TestAttachedReclaimsCompactionEligibleCore(t *testing.T) {
	// §3.3: a task can reclaim its attached core even past the
	// compaction deadline, as long as no one demoted it yet.
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	p.addPrimary(9, 0, "test")
	f.NowV = 100 * sim.Millisecond // far past PRemove
	task := schedtest.NewTask(1, 9, 9)
	got := p.SelectCoreWakeup(f, task, 0, false)
	if got != 9 {
		t.Fatalf("attached task could not reclaim stale core (got %d)", got)
	}
}

func TestCompactionDemotesStaleCore(t *testing.T) {
	// An unattached task searching the primary nest demotes a core idle
	// past PRemove instead of using it.
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	p.addPrimary(3, 0, "test")                  // stale
	p.addPrimary(7, 99*sim.Millisecond, "test") // fresh
	f.NowV = 100 * sim.Millisecond
	task := schedtest.NewTask(1, proc.NoCore, proc.NoCore)
	got := p.SelectCoreWakeup(f, task, 0, false)
	if got != 7 {
		t.Fatalf("got %d, want fresh primary core 7", got)
	}
	if p.InPrimary(3) {
		t.Fatal("stale core not demoted")
	}
	if !p.InReserve(3) {
		t.Fatal("stale core not moved to reserve")
	}
}

func TestCompactionDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableCompaction = true
	p := New(cfg)
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p.ensure(f, 0)
	p.addPrimary(3, 0, "test")
	f.NowV = 100 * sim.Millisecond
	got := p.SelectCoreWakeup(f, schedtest.NewTask(1, proc.NoCore, proc.NoCore), 0, false)
	if got != 3 {
		t.Fatalf("got %d, want 3 (stale but compaction off)", got)
	}
	if !p.InPrimary(3) {
		t.Fatal("core demoted despite DisableCompaction")
	}
}

func TestExitDemotesIdleCore(t *testing.T) {
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	p.addPrimary(5, 0, "test")
	task := schedtest.NewTask(1, 5, 5)
	p.Exited(f, task, 5, true)
	if p.InPrimary(5) {
		t.Fatal("core still primary after its task exited leaving it idle")
	}
	if !p.InReserve(5) {
		t.Fatal("exited core not demoted to reserve")
	}
	// Not demoted when other work remains on the core.
	p.addPrimary(6, 0, "test")
	p.Exited(f, task, 6, false)
	if !p.InPrimary(6) {
		t.Fatal("core demoted although it was not idle")
	}
}

func TestReserveBounded(t *testing.T) {
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	for c := machine.CoreID(0); c < 10; c++ {
		p.addPrimary(c, 0, "test")
	}
	for c := machine.CoreID(0); c < 10; c++ {
		p.demote(c, 0, "test")
	}
	if p.ReserveSize() != p.Config().RMax {
		t.Fatalf("reserve size = %d, want RMax = %d", p.ReserveSize(), p.Config().RMax)
	}
	// Cores demoted past the cap are dropped from both nests.
	dropped := 0
	for c := machine.CoreID(0); c < 10; c++ {
		if !p.InPrimary(c) && !p.InReserve(c) {
			dropped++
		}
	}
	if dropped != 10-p.Config().RMax {
		t.Fatalf("dropped = %d, want %d", dropped, 10-p.Config().RMax)
	}
}

func TestImpatienceExpandsNest(t *testing.T) {
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	// Primary has one core, busy: a waking task keeps finding its prev
	// core occupied.
	p.addPrimary(2, 0, "test")
	f.SetBusy(2, 1.0)
	task := schedtest.NewTask(1, 2, proc.NoCore)

	// First failure: not yet impatient; the CFS pick goes on probation in
	// the reserve nest.
	c1 := p.SelectCoreWakeup(f, task, 2, false)
	if p.InPrimary(c1) {
		t.Fatalf("core %d joined primary before the task was impatient", c1)
	}
	td := task.SchedData.(*taskData)
	if td.impatience != 1 {
		t.Fatalf("impatience = %d, want 1", td.impatience)
	}
	// The task bounced: it wakes again and finds core 2 busy a second
	// time (RImpatient = 2) — now impatient, so the chosen core must
	// join the primary nest directly and the counter resets. Make the
	// probation core busy too so the reserve search fails.
	f.SetBusy(c1, 1.0)
	c2 := p.SelectCoreWakeup(f, task, 2, false)
	if !p.InPrimary(c2) {
		t.Fatalf("impatient task's core %d not added to primary", c2)
	}
	if td.impatience != 0 {
		t.Fatalf("impatience not reset: %d", td.impatience)
	}
}

func TestClaimedCoreSkipped(t *testing.T) {
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	p.addPrimary(2, 0, "test")
	p.addPrimary(3, 0, "test")
	f.NowV = sim.Millisecond
	p.lastUsed[2] = f.NowV
	p.lastUsed[3] = f.NowV
	f.ClaimedV[2] = true
	got := p.SelectCoreWakeup(f, schedtest.NewTask(1, 2, proc.NoCore), 2, false)
	if got == 2 {
		t.Fatal("placement landed on a claimed core")
	}
	if got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
}

func TestClaimCheckDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableClaimCheck = true
	p := New(cfg)
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p.ensure(f, 0)
	p.addPrimary(2, 0, "test")
	f.NowV = sim.Millisecond
	p.lastUsed[2] = f.NowV
	f.ClaimedV[2] = true
	got := p.SelectCoreWakeup(f, schedtest.NewTask(1, 2, proc.NoCore), 2, false)
	if got != 2 {
		t.Fatalf("got %d, want 2 (claim check disabled)", got)
	}
}

func TestIdleSpinOnlyOnPrimaryCores(t *testing.T) {
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	p.addPrimary(4, 0, "test")
	if d := p.IdleSpin(f, 4); d != p.Config().SMax {
		t.Fatalf("primary core spin = %v, want %v", d, p.Config().SMax)
	}
	if d := p.IdleSpin(f, 5); d != 0 {
		t.Fatalf("non-nest core spin = %v, want 0", d)
	}
	cfg := DefaultConfig()
	cfg.DisableSpin = true
	p2 := New(cfg)
	p2.ensure(f, 0)
	p2.addPrimary(4, 0, "test")
	if d := p2.IdleSpin(f, 4); d != 0 {
		t.Fatal("DisableSpin ignored")
	}
}

func TestSameDiePreferredInPrimarySearch(t *testing.T) {
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	f.NowV = sim.Millisecond
	// Primary cores on both sockets, all fresh and idle.
	p.addPrimary(40, f.NowV, "test")             // socket 1
	p.addPrimary(10, f.NowV, "test")             // socket 0
	task := schedtest.NewTask(1, 8, proc.NoCore) // prev on socket 0
	f.SetBusy(8, 1.0)                            // prev occupied: the nest search runs
	got := p.SelectCoreWakeup(f, task, 8, false)
	if got != 10 {
		t.Fatalf("got %d, want same-die primary core 10", got)
	}
}

func TestPrevCoreFastPath(t *testing.T) {
	// §5.4: Nest favours the previously used core — when it belongs to a
	// nest. An idle prev in the reserve nest is promoted, which is how a
	// lone task's core becomes a warm, spinning nest core; a prev
	// outside the nests does not shortcut the search, guiding the task
	// back toward the warm nest cores.
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	f.NowV = sim.Millisecond
	p.addPrimary(10, f.NowV, "test")

	outside := schedtest.NewTask(1, 20, proc.NoCore)
	if got := p.SelectCoreWakeup(f, outside, 0, false); got != 10 {
		t.Fatalf("prev outside nests shortcut the search: got %d, want nest core 10", got)
	}

	p.addReserve(25)
	inReserve := schedtest.NewTask(2, 25, proc.NoCore)
	if got := p.SelectCoreWakeup(f, inReserve, 25, false); got != 25 {
		t.Fatalf("idle prev in reserve not reused: got %d", got)
	}
	if !p.InPrimary(25) || p.InReserve(25) {
		t.Fatal("prev selected from reserve was not promoted")
	}
}

func TestDisableReserveSendsCFSPicksToPrimary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableReserve = true
	p := New(cfg)
	spec := spec5218()
	f := schedtest.NewFake(spec)
	c := p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), 0)
	if !p.InPrimary(c) {
		t.Fatal("without a reserve, CFS picks must join primary directly")
	}
	if p.ReserveSize() != 0 {
		t.Fatal("reserve used despite DisableReserve")
	}
}

func TestDisableAttach(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAttach = true
	p := New(cfg)
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p.ensure(f, 0)
	f.NowV = sim.Millisecond
	p.addPrimary(2, f.NowV, "test")
	p.addPrimary(9, f.NowV, "test")
	task := schedtest.NewTask(1, 9, 9) // attached to 9
	// Without attachment, the search starts from ref (prev = 9): the scan
	// from core 9 wraps and still finds 9 first on its die... use a ref
	// of 0 by clearing history relevance: ref comes from t.Last, so
	// instead verify that the attached fast path is not taken when the
	// core is stale (it would be reclaimed only via attachment).
	p.lastUsed[9] = 0
	f.NowV = 100 * sim.Millisecond
	p.lastUsed[2] = f.NowV
	got := p.SelectCoreWakeup(f, task, 0, false)
	if got == 9 {
		t.Fatal("stale core reclaimed although attachment is disabled")
	}
}

func TestNestFallsBackToCFSWhenAllBusy(t *testing.T) {
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.ensure(f, 0)
	p.addPrimary(2, 0, "test")
	f.SetBusy(2, 1.0)
	f.NowV = sim.Millisecond
	p.lastUsed[2] = f.NowV
	task := schedtest.NewTask(1, 2, proc.NoCore)
	got := p.SelectCoreWakeup(f, task, 2, false)
	if got == 2 {
		t.Fatal("placed on busy core")
	}
	if !f.IsIdle(got) {
		t.Fatalf("fallback picked busy core %d", got)
	}
}

func TestSearchCostHigherThanCFS(t *testing.T) {
	// §5.6: Nest adds code to core selection. With a populated nest, its
	// fixed cost exceeds CFS's.
	spec := spec5218()
	f := schedtest.NewFake(spec)
	p := Default()
	p.SelectCoreFork(f, nil, schedtest.NewTask(1, proc.NoCore, proc.NoCore), 0)
	if f.Fixed < 800*sim.Nanosecond {
		t.Fatalf("nest fixed cost %v too low", f.Fixed)
	}
}

// TestNestSetInvariants drives the policy with random operations and
// checks the structural invariants: the nests stay disjoint, the reserve
// respects R_max, sizes match membership, and eviction marks exactly the
// out-of-nest cores that once were in.
func TestNestSetInvariants(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		spec := spec5218()
		fake := schedtest.NewFake(spec)
		p := Default()
		p.ensure(fake, 0)
		r := sim.NewRand(seed)
		n := spec.Topo.NumCores()
		tasks := make([]*proc.Task, 8)
		for i := range tasks {
			tasks[i] = schedtest.NewTask(i+1, proc.NoCore, proc.NoCore)
		}
		for s := 0; s < int(steps); s++ {
			fake.NowV += sim.Duration(r.Intn(int(3 * sim.Tick)))
			task := tasks[r.Intn(len(tasks))]
			c := machine.CoreID(r.Intn(n))
			switch r.Intn(5) {
			case 0:
				got := p.SelectCoreFork(fake, nil, task, c)
				task.RecordExecution(got)
			case 1:
				got := p.SelectCoreWakeup(fake, task, c, r.Intn(2) == 0)
				task.RecordExecution(got)
			case 2:
				p.ScheduledIn(fake, task, c)
			case 3:
				p.Blocked(fake, task, c)
			case 4:
				p.Exited(fake, task, c, r.Intn(2) == 0)
			}
			// Invariants.
			np, nr := 0, 0
			for i := 0; i < n; i++ {
				cid := machine.CoreID(i)
				if p.InPrimary(cid) && p.InReserve(cid) {
					t.Logf("core %d in both nests", i)
					return false
				}
				if p.InPrimary(cid) {
					np++
				}
				if p.InReserve(cid) {
					nr++
				}
				if p.evicted[cid] && (p.primary.has(cid) || p.reserve.has(cid)) {
					t.Logf("core %d evicted yet in a nest", i)
					return false
				}
			}
			if np != p.PrimarySize() || nr != p.ReserveSize() {
				t.Logf("size mismatch: %d/%d vs %d/%d", np, nr, p.PrimarySize(), p.ReserveSize())
				return false
			}
			if nr > p.Config().RMax {
				t.Logf("reserve overflow: %d", nr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
