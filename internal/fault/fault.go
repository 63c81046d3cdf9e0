// Package fault turns deterministic fault plans into ordinary simulation
// events: core hotplug windows, per-socket thermal throttling of the
// Table-3 turbo ladder, scheduler-tick jitter, and load spikes.
//
// A plan is a list of items, each anchored at a virtual time; Apply
// schedules them on the run's engine before the workload starts, so
// faults land at exactly the same instants for every scheduler under
// comparison and for every repeat of a seed. The runtime side — what an
// offline core does with its tasks, how a throttle re-clamps grants —
// lives in internal/cpu; this package only describes and schedules.
//
// Plans are written in a small DSL (see Parse and docs/ROBUSTNESS.md):
//
//	off:c3@2s+500ms,throttle:s0@1s=2.1GHz
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Kind enumerates fault actions.
type Kind int

// The fault kinds, in DSL spelling order.
const (
	Offline  Kind = iota // "off": take a core offline
	Online               // "on": bring a core online
	Throttle             // "throttle": cap a socket's frequency
	Jitter               // "jitter": randomise the tick period
	Spike                // "spike": inject a burst of compute tasks
)

// String returns the DSL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Offline:
		return "off"
	case Online:
		return "on"
	case Throttle:
		return "throttle"
	case Jitter:
		return "jitter"
	case Spike:
		return "spike"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Item is one scheduled fault.
type Item struct {
	Kind Kind
	// Core is the target of Offline/Online items.
	Core machine.CoreID
	// Socket is the target of Throttle items.
	Socket int
	// At is when the fault takes effect.
	At sim.Time
	// Dur, when positive, bounds the fault: the reverse action (online,
	// unthrottle, jitter off) is scheduled at At+Dur.
	Dur sim.Duration
	// Cap is the Throttle ceiling.
	Cap machine.FreqMHz
	// Amp is the Jitter amplitude: each tick is delayed by a
	// deterministic draw from [0, Amp).
	Amp sim.Duration
	// Count and Work describe a Spike: Count tasks of Work compute each.
	Count int
	Work  sim.Duration
}

// Injector is the runtime surface a plan drives. *cpu.Machine implements
// it; the indirection keeps this package free of the runtime and lets
// tests record applications instead of running them.
type Injector interface {
	Engine() *sim.Engine
	OfflineCore(c machine.CoreID)
	OnlineCore(c machine.CoreID)
	ThrottleSocket(s int, cap machine.FreqMHz)
	SetTickJitter(amp sim.Duration)
	InjectLoad(n int, work sim.Duration)
}

// Plan is an ordered list of fault items. Order matters only for items
// anchored at the same instant: they apply in list order.
type Plan struct {
	Items []Item
}

// Empty reports whether the plan does nothing. A nil plan is empty.
func (p *Plan) Empty() bool { return p == nil || len(p.Items) == 0 }

// Apply schedules every item on the injector's engine. Call once,
// before the run starts. The engine fires one instant's events in
// posting order, so posting in list order keeps same-instant items in
// list order.
func (p *Plan) Apply(inj Injector) {
	if p.Empty() {
		return
	}
	acts := make([]action, 0, 2*len(p.Items))
	for _, it := range p.Items {
		acts = append(acts, action{inj, it})
		if it.Dur > 0 && (it.Kind == Offline || it.Kind == Throttle || it.Kind == Jitter) {
			rev := it // ends the fault at At+Dur: online, unthrottle, jitter off
			rev.At, rev.Cap, rev.Amp = it.At+it.Dur, 0, 0
			if it.Kind == Offline {
				rev.Kind = Online
			}
			acts = append(acts, action{inj, rev})
		}
	}
	eng := inj.Engine()
	for i := range acts {
		eng.PostRun(acts[i].it.At, &acts[i])
	}
}

// action is one item scheduled on the engine.
type action struct {
	inj Injector
	it  Item
}

// RunAt applies the item.
func (a *action) RunAt(sim.Time) {
	it := &a.it
	switch it.Kind {
	case Offline:
		a.inj.OfflineCore(it.Core)
	case Online:
		a.inj.OnlineCore(it.Core)
	case Throttle:
		a.inj.ThrottleSocket(it.Socket, it.Cap)
	case Jitter:
		a.inj.SetTickJitter(it.Amp)
	case Spike:
		a.inj.InjectLoad(it.Count, it.Work)
	}
}

// maxSpikeTasks bounds one spike item; larger bursts are almost
// certainly a typo'd plan, not a workload.
const maxSpikeTasks = 10000

// Validate checks the plan against a machine spec: targets in range,
// throttle caps at or above the machine minimum (a cap below it would
// demand frequencies the hardware cannot grant), and a hotplug timeline
// that never takes the last core offline.
func (p *Plan) Validate(spec *machine.Spec) error {
	if p.Empty() {
		return nil
	}
	n := spec.Topo.NumCores()
	ns := spec.Topo.NumSockets()
	for i, it := range p.Items {
		if it.At < 0 {
			return fmt.Errorf("item %d (%s): negative time %d", i, it.Kind, it.At)
		}
		if it.Dur < 0 {
			return fmt.Errorf("item %d (%s): negative duration %d", i, it.Kind, it.Dur)
		}
		switch it.Kind {
		case Offline, Online:
			if int(it.Core) < 0 || int(it.Core) >= n {
				return fmt.Errorf("item %d (%s): core c%d out of range (machine has %d cores)", i, it.Kind, it.Core, n)
			}
		case Throttle:
			if it.Socket < 0 || it.Socket >= ns {
				return fmt.Errorf("item %d (throttle): socket s%d out of range (machine has %d sockets)", i, it.Socket, ns)
			}
			if it.Cap < spec.Min {
				return fmt.Errorf("item %d (throttle): cap %d MHz below machine minimum %d MHz", i, it.Cap, spec.Min)
			}
		case Jitter:
			if it.Amp <= 0 {
				return fmt.Errorf("item %d (jitter): amplitude must be positive", i)
			}
			if it.Amp > sim.Tick {
				return fmt.Errorf("item %d (jitter): amplitude %d ns exceeds the tick period %d ns", i, it.Amp, sim.Tick)
			}
		case Spike:
			if it.Count <= 0 || it.Work <= 0 {
				return fmt.Errorf("item %d (spike): need a positive task count and work", i)
			}
			if it.Count > maxSpikeTasks {
				return fmt.Errorf("item %d (spike): %d tasks exceeds the %d-task limit", i, it.Count, maxSpikeTasks)
			}
		default:
			return fmt.Errorf("item %d: unknown kind %d", i, it.Kind)
		}
	}
	return p.validateHotplug(n)
}

// validateHotplug sweeps the offline/online timeline in the same order
// Apply schedules it (time, then item order) and rejects plans that
// would leave zero cores online. The runtime refuses such a transition
// too, but refusing at parse time gives the user an error instead of a
// silently skipped fault.
func (p *Plan) validateHotplug(cores int) error {
	type edge struct {
		t    sim.Time
		seq  int
		on   bool
		core machine.CoreID
	}
	var edges []edge
	for i, it := range p.Items {
		switch it.Kind {
		case Offline:
			edges = append(edges, edge{it.At, 2 * i, false, it.Core})
			if it.Dur > 0 {
				edges = append(edges, edge{it.At + it.Dur, 2*i + 1, true, it.Core})
			}
		case Online:
			edges = append(edges, edge{it.At, 2 * i, true, it.Core})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return edges[a].seq < edges[b].seq
	})
	off := make(map[machine.CoreID]bool)
	for _, e := range edges {
		if e.on {
			delete(off, e.core)
		} else {
			off[e.core] = true
		}
		if len(off) >= cores {
			return fmt.Errorf("plan takes every core offline at %v", e.t)
		}
	}
	return nil
}

// String renders the plan in canonical DSL form; Parse(p.String())
// yields an equal plan.
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, 0, len(p.Items))
	for _, it := range p.Items {
		parts = append(parts, it.String())
	}
	return strings.Join(parts, ",")
}

// String renders the item in canonical DSL form.
func (it Item) String() string {
	window := func(s string) string {
		if it.Dur > 0 {
			return s + "+" + fmtDur(it.Dur)
		}
		return s
	}
	switch it.Kind {
	case Offline:
		return window(fmt.Sprintf("off:c%d@%s", it.Core, fmtDur(it.At)))
	case Online:
		return fmt.Sprintf("on:c%d@%s", it.Core, fmtDur(it.At))
	case Throttle:
		return window(fmt.Sprintf("throttle:s%d@%s", it.Socket, fmtDur(it.At))) + "=" + fmtFreq(it.Cap)
	case Jitter:
		return window("jitter:@"+fmtDur(it.At)) + "=" + fmtDur(it.Amp)
	case Spike:
		return fmt.Sprintf("spike:@%s=%dx%s", fmtDur(it.At), it.Count, fmtDur(it.Work))
	}
	return fmt.Sprintf("?(%d)", int(it.Kind))
}

// fmtDur renders a duration with the largest unit that divides it
// exactly, so values round-trip through Parse.
func fmtDur(d sim.Duration) string {
	switch {
	case d >= sim.Second && d%sim.Second == 0:
		return fmt.Sprintf("%ds", d/sim.Second)
	case d >= sim.Millisecond && d%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	case d >= sim.Microsecond && d%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", d/sim.Microsecond)
	}
	return fmt.Sprintf("%dns", d)
}

// fmtFreq renders a frequency, preferring GHz when exact.
func fmtFreq(f machine.FreqMHz) string {
	if f >= 1000 && f%1000 == 0 {
		return fmt.Sprintf("%dGHz", f/1000)
	}
	return fmt.Sprintf("%dMHz", int(f))
}
