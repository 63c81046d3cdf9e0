// Package schedtest provides a configurable in-memory sched.Machine for
// unit-testing placement policies without the full runtime.
package schedtest

import (
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

var _ sched.Machine = (*Fake)(nil)

// Fake implements sched.Machine with directly settable state.
type Fake struct {
	SpecV *machine.Spec
	NowV  sim.Time
	Rng   *sim.Rand
	Hub   *obs.Hub // nil = observability off, as in the real runtime

	Busy     map[machine.CoreID]bool
	Offline  map[machine.CoreID]bool
	Queue    map[machine.CoreID]int
	Load     map[machine.CoreID]float64
	Freq     map[machine.CoreID]machine.FreqMHz
	TickF    map[machine.CoreID]machine.FreqMHz
	IdleAt   map[machine.CoreID]sim.Time
	ClaimedV map[machine.CoreID]bool
	SockLoad []float64
	SockRun  []int

	Examined int
	Fixed    sim.Duration

	// Moves records MoveIfStillQueued calls.
	Moves []Move
}

// Move is a recorded MoveIfStillQueued call.
type Move struct {
	Task  *proc.Task
	To    machine.CoreID
	Delay sim.Duration
}

// NewFake returns a fake machine for spec with everything idle and cold.
func NewFake(spec *machine.Spec) *Fake {
	return &Fake{
		SpecV:    spec,
		Rng:      sim.NewRand(1),
		Busy:     map[machine.CoreID]bool{},
		Offline:  map[machine.CoreID]bool{},
		Queue:    map[machine.CoreID]int{},
		Load:     map[machine.CoreID]float64{},
		Freq:     map[machine.CoreID]machine.FreqMHz{},
		TickF:    map[machine.CoreID]machine.FreqMHz{},
		IdleAt:   map[machine.CoreID]sim.Time{},
		ClaimedV: map[machine.CoreID]bool{},
		SockLoad: make([]float64, spec.Topo.NumSockets()),
		SockRun:  make([]int, spec.Topo.NumSockets()),
	}
}

// SetBusy marks c busy with the given load.
func (f *Fake) SetBusy(c machine.CoreID, load float64) {
	f.Busy[c] = true
	f.Load[c] = load
}

// Spec implements sched.Machine.
func (f *Fake) Spec() *machine.Spec { return f.SpecV }

// Topo implements sched.Machine.
func (f *Fake) Topo() *machine.Topology { return f.SpecV.Topo }

// Now implements sched.Machine.
func (f *Fake) Now() sim.Time { return f.NowV }

// Rand implements sched.Machine.
func (f *Fake) Rand() *sim.Rand { return f.Rng }

// Obs implements sched.Machine.
func (f *Fake) Obs() *obs.Hub { return f.Hub }

// IsIdle implements sched.Machine.
func (f *Fake) IsIdle(c machine.CoreID) bool {
	return !f.Offline[c] && !f.Busy[c] && f.Queue[c] == 0
}

// Online implements sched.Machine.
func (f *Fake) Online(c machine.CoreID) bool { return !f.Offline[c] }

// QueueLen implements sched.Machine.
func (f *Fake) QueueLen(c machine.CoreID) int {
	n := f.Queue[c]
	if f.Busy[c] {
		n++
	}
	return n
}

// LoadAvg implements sched.Machine.
func (f *Fake) LoadAvg(c machine.CoreID) float64 { return f.Load[c] }

// CurFreq implements sched.Machine.
func (f *Fake) CurFreq(c machine.CoreID) machine.FreqMHz {
	if v, ok := f.Freq[c]; ok {
		return v
	}
	return f.SpecV.Min
}

// TickFreq implements sched.Machine.
func (f *Fake) TickFreq(c machine.CoreID) machine.FreqMHz {
	if v, ok := f.TickF[c]; ok {
		return v
	}
	return f.SpecV.Min
}

// IdleSince implements sched.Machine.
func (f *Fake) IdleSince(c machine.CoreID) (sim.Time, bool) {
	if f.Busy[c] {
		return 0, false
	}
	return f.IdleAt[c], true
}

// Claimed implements sched.Machine.
func (f *Fake) Claimed(c machine.CoreID) bool { return f.ClaimedV[c] }

// SocketLoads implements sched.Machine.
func (f *Fake) SocketLoads() []float64 { return f.SockLoad }

// SocketRunning implements sched.Machine.
func (f *Fake) SocketRunning() []int { return f.SockRun }

// IdleMask implements sched.Machine, built afresh from the maps.
func (f *Fake) IdleMask(s int) sched.Mask { return f.mask(s, f.IsIdle) }

// ClaimedMask implements sched.Machine, built afresh from the maps.
func (f *Fake) ClaimedMask(s int) sched.Mask { return f.mask(s, f.Claimed) }

func (f *Fake) mask(s int, in func(machine.CoreID) bool) sched.Mask {
	cores := f.Topo().SocketCores(s)
	m := make(sched.Mask, sched.MaskWords(len(cores)))
	for i, c := range cores {
		if in(c) {
			m.Set(i)
		}
	}
	return m
}

// ChargeSearch implements sched.Machine.
func (f *Fake) ChargeSearch(examined int, fixed sim.Duration) {
	f.Examined += examined
	f.Fixed += fixed
}

// MoveIfStillQueued implements sched.Machine.
func (f *Fake) MoveIfStillQueued(t *proc.Task, to machine.CoreID, d sim.Duration) {
	f.Moves = append(f.Moves, Move{Task: t, To: to, Delay: d})
}

// Specs returns machines for differential tests of the placement
// searches: every preset, an SMT1 machine, and machines with more than
// 64 hardware threads per socket, so that a socket's masks span several
// words, with and without SMT.
func Specs() []*machine.Spec {
	var specs []*machine.Spec
	for _, name := range machine.PresetNames() {
		spec, err := machine.Preset(name)
		if err != nil {
			panic(err)
		}
		specs = append(specs, spec)
	}
	for _, d := range []struct{ sockets, phys, smt int }{{2, 12, 1}, {2, 40, 2}, {2, 130, 1}} {
		topo, err := machine.NewChecked("test", d.sockets, d.phys, d.smt)
		if err != nil {
			panic(err)
		}
		specs = append(specs, &machine.Spec{
			Topo: topo, Arch: "test", Min: 1000, Nominal: 2000,
			IdleSocketW: 1, ActiveBaseW: 1, DynPerGHzW: 1,
		})
	}
	return specs
}

// Scramble gives every core a fresh random state for differential
// tests of the placement searches. Each core is independently busy,
// queued on, claimed and offline with probabilities scaled by density
// (0 leaves the machine idle); socket loads and runnable counts are
// drawn too, so load-based choices vary. Offline cores take no other
// state, as in the runtime.
func (f *Fake) Scramble(r *sim.Rand, density float64) {
	clear(f.Busy)
	clear(f.Offline)
	clear(f.Queue)
	clear(f.ClaimedV)
	topo := f.Topo()
	for c := machine.CoreID(0); int(c) < topo.NumCores(); c++ {
		if r.Float64() < density/8 {
			f.Offline[c] = true
			continue
		}
		if r.Float64() < density {
			f.Busy[c] = true
		}
		if r.Float64() < density/3 {
			f.Queue[c] = 1 + r.Intn(3)
		}
		if r.Float64() < density/2 {
			f.ClaimedV[c] = true
		}
	}
	for s := range f.SockLoad {
		f.SockLoad[s] = 4 * r.Float64()
		f.SockRun[s] = r.Intn(1 + topo.NumCores()/topo.NumSockets())
	}
}

// NewTask returns a task with the given core history for placement tests.
func NewTask(id int, last, prev2 machine.CoreID) *proc.Task {
	return &proc.Task{
		ID:    proc.TaskID(id),
		Name:  "t",
		Last:  last,
		Prev2: prev2,
		Cur:   proc.NoCore,
	}
}
