package fixture

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

func badPost(eng *sim.Engine, wakes map[int]sim.Time) {
	for _, t := range wakes { // want `range over a map`
		eng.Post(t, func() {})
	}
}

func badEmit(h *obs.Hub, cores map[int]bool) {
	for c := range cores { // want `range over a map`
		h.Emit(obs.NestExpand{Core: c})
	}
}

// Scheduling work built from a map-range key or value: the payload, and
// with equal deadlines the firing order, inherits the random map order.
// Closures and pooled Runners alike.

func use(int) {}

type wake struct {
	id int
}

func (w *wake) RunAt(now sim.Time) { use(w.id) }

func badPostCapture(eng *sim.Engine, wakes map[int]sim.Time) {
	for id, t := range wakes { // want `range over a map`
		eng.Post(t, func() { use(id) })
	}
}

func badPostRun(eng *sim.Engine, wakes map[int]sim.Time) {
	for id, t := range wakes { // want `range over a map`
		eng.PostRun(t, &wake{id: id})
	}
}

func badPostRunAfter(eng *sim.Engine, delays map[int]sim.Duration) {
	for id, d := range delays { // want `range over a map`
		eng.PostRunAfter(d, &wake{id: id})
	}
}

func badArm(eng *sim.Engine, ev *sim.Event, wakes map[int]sim.Time) {
	for id, t := range wakes { // want `range over a map`
		eng.Arm(ev, t, &wake{id: id})
	}
}

func badArmAfter(eng *sim.Engine, ev *sim.Event, delays map[int]sim.Duration) {
	for id, d := range delays { // want `range over a map`
		eng.ArmAfter(ev, d, &wake{id: id})
	}
}
