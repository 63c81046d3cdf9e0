package invariant

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// fakeState is a hand-built machine snapshot for provoking violations.
type fakeState struct {
	now      sim.Time
	topo     *machine.Topology
	offline  map[machine.CoreID]bool
	running  map[machine.CoreID]*proc.Task
	queued   map[machine.CoreID][]*proc.Task
	live     []*proc.Task
	inFlight map[proc.TaskID]bool
	freq     map[machine.CoreID]machine.FreqMHz
	cap      machine.FreqMHz
}

func newFake() *fakeState {
	return &fakeState{
		topo:     machine.New("fake", 1, 2, 2), // 4 cores
		offline:  map[machine.CoreID]bool{},
		running:  map[machine.CoreID]*proc.Task{},
		queued:   map[machine.CoreID][]*proc.Task{},
		inFlight: map[proc.TaskID]bool{},
		freq:     map[machine.CoreID]machine.FreqMHz{},
		cap:      3000,
	}
}

func (f *fakeState) Now() sim.Time                        { return f.now }
func (f *fakeState) Topo() *machine.Topology              { return f.topo }
func (f *fakeState) Online(c machine.CoreID) bool         { return !f.offline[c] }
func (f *fakeState) Running(c machine.CoreID) *proc.Task  { return f.running[c] }
func (f *fakeState) Queued(c machine.CoreID) []*proc.Task { return f.queued[c] }
func (f *fakeState) LiveTasks() []*proc.Task              { return f.live }
func (f *fakeState) PlacementInFlight(t *proc.Task) bool  { return f.inFlight[t.ID] }
func (f *fakeState) CurFreq(c machine.CoreID) machine.FreqMHz {
	if v, ok := f.freq[c]; ok {
		return v
	}
	return 1000
}
func (f *fakeState) FreqCap(machine.CoreID) machine.FreqMHz { return f.cap }

// fakeNest exposes controllable masks.
type fakeNest struct{ primary, reserve map[machine.CoreID]bool }

func (n *fakeNest) InPrimary(c machine.CoreID) bool { return n.primary[c] }
func (n *fakeNest) InReserve(c machine.CoreID) bool { return n.reserve[c] }

func task(id proc.TaskID, st proc.State, cur machine.CoreID) *proc.Task {
	return &proc.Task{ID: id, Name: "t", State: st, Cur: cur}
}

// sweep runs one check and returns the rules violated.
func sweep(c *Checker) []string {
	before := len(c.Violations())
	c.Check()
	var rules []string
	for _, v := range c.Violations()[before:] {
		rules = append(rules, v.Rule)
	}
	return rules
}

func wantRules(t *testing.T, got []string, want ...string) {
	t.Helper()
	gotSet := map[string]int{}
	for _, r := range got {
		gotSet[r]++
	}
	wantSet := map[string]int{}
	for _, r := range want {
		wantSet[r]++
	}
	if len(gotSet) != len(wantSet) {
		t.Fatalf("violated rules %v, want %v", got, want)
	}
	for r := range wantSet {
		if gotSet[r] == 0 {
			t.Fatalf("violated rules %v, want %v", got, want)
		}
	}
}

func TestHealthySweepIsClean(t *testing.T) {
	f := newFake()
	run := task(1, proc.StateRunning, 0)
	qd := task(2, proc.StateRunnable, 1)
	blocked := task(3, proc.StateBlocked, proc.NoCore)
	flying := task(4, proc.StateRunnable, proc.NoCore)
	f.running[0] = run
	f.queued[1] = []*proc.Task{qd}
	f.inFlight[4] = true
	f.live = []*proc.Task{run, qd, blocked, flying}

	c := New()
	c.Bind(f, nil)
	if rules := sweep(c); len(rules) != 0 {
		t.Fatalf("healthy state violated %v", rules)
	}
	if c.Checks() != 1 || c.Total() != 0 {
		t.Fatalf("checks=%d total=%d", c.Checks(), c.Total())
	}
}

func TestEachRuleTrips(t *testing.T) {
	t.Run("clock_monotonic", func(t *testing.T) {
		f := newFake()
		c := New()
		c.Bind(f, nil)
		f.now = 5
		sweep(c)
		f.now = 3
		wantRules(t, sweep(c), "clock_monotonic")
	})
	t.Run("offline_running", func(t *testing.T) {
		f := newFake()
		f.offline[0] = true
		tk := task(1, proc.StateRunning, 0)
		f.running[0] = tk
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "offline_running")
	})
	t.Run("offline_queued", func(t *testing.T) {
		f := newFake()
		f.offline[1] = true
		tk := task(1, proc.StateRunnable, 1)
		f.queued[1] = []*proc.Task{tk}
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "offline_queued")
	})
	t.Run("running_state", func(t *testing.T) {
		f := newFake()
		tk := task(1, proc.StateRunnable, 0) // wrong state for a running slot
		f.running[0] = tk
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "running_state")
	})
	t.Run("running_cur", func(t *testing.T) {
		f := newFake()
		tk := task(1, proc.StateRunning, 2) // Cur disagrees with the slot
		f.running[0] = tk
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "running_cur")
	})
	t.Run("queued_state", func(t *testing.T) {
		f := newFake()
		tk := task(1, proc.StateBlocked, 1)
		f.queued[1] = []*proc.Task{tk}
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		// A blocked task on a queue is also a phantom.
		wantRules(t, sweep(c), "queued_state", "task_phantom")
	})
	t.Run("queued_cur", func(t *testing.T) {
		f := newFake()
		tk := task(1, proc.StateRunnable, 3)
		f.queued[1] = []*proc.Task{tk}
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "queued_cur")
	})
	t.Run("double_run", func(t *testing.T) {
		f := newFake()
		tk := task(1, proc.StateRunnable, 1)
		f.queued[1] = []*proc.Task{tk}
		f.queued[2] = []*proc.Task{tk}
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		// One of the two queue slots necessarily disagrees with Cur.
		wantRules(t, sweep(c), "double_run", "queued_cur")
	})
	t.Run("task_lost_running", func(t *testing.T) {
		f := newFake()
		tk := task(1, proc.StateRunning, 0) // claims to run, no core has it
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "task_lost")
	})
	t.Run("task_lost_runnable", func(t *testing.T) {
		f := newFake()
		tk := task(1, proc.StateRunnable, proc.NoCore)
		f.live = []*proc.Task{tk} // not in flight, on no queue
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "task_lost")
	})
	t.Run("task_phantom", func(t *testing.T) {
		f := newFake()
		tk := task(1, proc.StateExited, 2)
		f.queued[2] = []*proc.Task{tk}
		f.live = []*proc.Task{tk}
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "task_phantom", "queued_state")
	})
	t.Run("freq_above_cap", func(t *testing.T) {
		f := newFake()
		f.cap = 2000
		f.freq[3] = 2002 // beyond the +1 MHz rounding headroom
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "freq_above_cap")
	})
	t.Run("nest_mask_overlap", func(t *testing.T) {
		f := newFake()
		nv := &fakeNest{
			primary: map[machine.CoreID]bool{1: true},
			reserve: map[machine.CoreID]bool{1: true},
		}
		c := New()
		c.Bind(f, nv)
		wantRules(t, sweep(c), "nest_mask_overlap")
	})
	t.Run("nest_offline_core", func(t *testing.T) {
		f := newFake()
		f.offline[2] = true
		nv := &fakeNest{
			primary: map[machine.CoreID]bool{2: true},
			reserve: map[machine.CoreID]bool{},
		}
		c := New()
		c.Bind(f, nv)
		wantRules(t, sweep(c), "nest_offline_core")
	})
}

// fakeIdle adds controllable idle-core bookkeeping to a fake state.
type fakeIdle struct {
	*fakeState
	inSet, holds map[machine.CoreID]bool
	count        int
	served       int // socket 0's cached turbo count; the scan finds 1
}

func newFakeIdle() *fakeIdle {
	return &fakeIdle{
		fakeState: newFake(),
		inSet:     map[machine.CoreID]bool{2: true},
		holds:     map[machine.CoreID]bool{2: true, 3: true},
		count:     1,
		served:    1,
	}
}

func (f *fakeIdle) Settled(c machine.CoreID) (bool, bool) { return f.inSet[c], f.holds[c] }
func (f *fakeIdle) SettledCount() int                     { return f.count }
func (f *fakeIdle) TurboCount(int) (int, int)             { return f.served, 1 }

func TestIdleAccountingRules(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		// Core 3 meets the predicate without being in the set yet: cores
		// join at the tick, so that is no violation.
		c := New()
		c.Bind(newFakeIdle(), nil)
		wantRules(t, sweep(c))
	})
	t.Run("settled_set_predicate", func(t *testing.T) {
		f := newFakeIdle()
		f.holds[2] = false
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "settled_set")
	})
	t.Run("settled_set_count", func(t *testing.T) {
		f := newFakeIdle()
		f.count = 2
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "settled_set")
	})
	t.Run("turbo_count", func(t *testing.T) {
		f := newFakeIdle()
		f.served = 2
		c := New()
		c.Bind(f, nil)
		wantRules(t, sweep(c), "turbo_count")
	})
}

// fakeLoad adds per-core load levels to a fake state; every core but 1
// carries none.
type fakeLoad struct {
	*fakeState
	util, hw, load float64 // core 1's
}

func (f *fakeLoad) CoreLoad(c machine.CoreID) (float64, float64, float64) {
	if c == 1 {
		return f.util, f.hw, f.load
	}
	return 0, 0, 0
}

func TestOfflineLoadRule(t *testing.T) {
	for _, tc := range []struct {
		name           string
		offline        bool
		util, hw, load float64
		want           []string
	}{
		{name: "online_loaded", util: 1, hw: 1, load: 0.9},
		{name: "offline_clean", offline: true},
		{name: "util_level", offline: true, util: 1, want: []string{"offline_load"}},
		{name: "hw_level", offline: true, hw: 0.35, want: []string{"offline_load"}},
		{name: "residual_load", offline: true, load: 0.98, want: []string{"offline_load"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeLoad{fakeState: newFake(), util: tc.util, hw: tc.hw, load: tc.load}
			f.offline[1] = tc.offline
			c := New()
			c.Bind(f, nil)
			wantRules(t, sweep(c), tc.want...)
		})
	}
}

// fakePlacement adds maintained placement state to a fake state: core
// 1's served bits and socket 0's served count are settable.
type fakePlacement struct {
	*fakeState
	idle1, claimed1 bool // core 1's served bits; the core is idle, unclaimed
	running         int  // socket 0's served count; a recount finds 0
}

func (f *fakePlacement) IdleBits(c machine.CoreID) (bool, bool, bool, bool) {
	if c == 1 {
		return f.idle1, f.claimed1, true, false
	}
	return true, false, true, false
}

func (f *fakePlacement) RunningCount(int) (int, int) { return f.running, 0 }

func TestPlacementAccountingRules(t *testing.T) {
	for _, tc := range []struct {
		name            string
		idle1, claimed1 bool
		running         int
		want            []string
	}{
		{name: "clean", idle1: true},
		{name: "idle_bit", want: []string{"idle_masks"}},
		{name: "claimed_bit", idle1: true, claimed1: true, want: []string{"idle_masks"}},
		{name: "running", idle1: true, running: 2, want: []string{"socket_running"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakePlacement{fakeState: newFake(), idle1: tc.idle1, claimed1: tc.claimed1, running: tc.running}
			c := New()
			c.Bind(f, nil)
			wantRules(t, sweep(c), tc.want...)
		})
	}
}

func TestFreqRoundingHeadroom(t *testing.T) {
	f := newFake()
	f.cap = 2000
	f.freq[0] = 2001 // within the +1 MHz headroom
	c := New()
	c.Bind(f, nil)
	if rules := sweep(c); len(rules) != 0 {
		t.Fatalf("rounding headroom violated: %v", rules)
	}
}

func TestViolationStorageBounded(t *testing.T) {
	f := newFake()
	tk := task(1, proc.StateRunning, 0)
	f.live = []*proc.Task{tk} // task_lost on every sweep
	c := New()
	c.Bind(f, nil)
	for i := 0; i < maxStored+50; i++ {
		c.Check()
	}
	if len(c.Violations()) != maxStored {
		t.Fatalf("stored %d violations, want %d", len(c.Violations()), maxStored)
	}
	if c.Total() != maxStored+50 {
		t.Fatalf("total = %d, want %d", c.Total(), maxStored+50)
	}
}

func TestObsEmission(t *testing.T) {
	hub := obs.New()
	f := newFake()
	tk := task(7, proc.StateRunning, 0)
	f.live = []*proc.Task{tk}
	c := New()
	c.SetObs(hub)
	c.Bind(f, nil)
	c.Check()
	snap := hub.Snapshot()
	if snap["invariant.violation"] != 1 || snap["invariant.task_lost"] != 1 {
		t.Fatalf("counters = %v", snap)
	}
}

func TestBindResetsClockWatermark(t *testing.T) {
	f := newFake()
	f.now = 10 * sim.Second
	c := New()
	c.Bind(f, nil)
	c.Check()
	// A fresh run restarts the virtual clock at zero; re-binding must not
	// misread that as time moving backwards.
	f2 := newFake()
	c.Bind(f2, nil)
	if rules := sweep(c); len(rules) != 0 {
		t.Fatalf("re-bind tripped %v", rules)
	}
}

func TestUnboundCheckerIsInert(t *testing.T) {
	c := New()
	c.Check()
	if c.Checks() != 0 || c.Total() != 0 {
		t.Fatal("unbound checker did something")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{T: sim.Second, Rule: "task_lost", Detail: "gone"}
	s := v.String()
	for _, want := range []string{"task_lost", "gone", "1.000000s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
