package main

import (
	"time"

	"repro/internal/governor"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The decorators below time calls into each layer's public API from
// outside. They forward every call unchanged, so a traced cell's result
// is byte-identical to its untraced twin's.

// epoch anchors the tracers' clock: time.Since on a monotonic reading
// costs one clock read.
var epoch = time.Now()

func stamp() time.Duration { return time.Since(epoch) }

// callStats accumulates the calls a decorator timed.
type callStats struct {
	n int64
	d time.Duration
}

func (s *callStats) add(d time.Duration) {
	s.n++
	s.d += d
}

// meanNS is the mean call duration in nanoseconds.
func (s callStats) meanNS() float64 { return ratio(float64(s.d), float64(s.n)) }

// policyStats is what the sched.Policy decorator measures for one
// policy, plus the traced run time of the cells that policy placed.
type policyStats struct {
	selects, hooks callStats
	run            time.Duration
}

// policyTracer times SelectCore* (selects) and the lifecycle hooks.
type policyTracer struct {
	inner sched.Policy
	st    *policyStats
}

func (p *policyTracer) Name() string { return p.inner.Name() }

func (p *policyTracer) SelectCoreFork(m sched.Machine, parent, child *proc.Task, parentCore machine.CoreID) machine.CoreID {
	t := stamp()
	c := p.inner.SelectCoreFork(m, parent, child, parentCore)
	p.st.selects.add(stamp() - t)
	return c
}

func (p *policyTracer) SelectCoreWakeup(m sched.Machine, t *proc.Task, wakerCore machine.CoreID, sync bool) machine.CoreID {
	s := stamp()
	c := p.inner.SelectCoreWakeup(m, t, wakerCore, sync)
	p.st.selects.add(stamp() - s)
	return c
}

func (p *policyTracer) ScheduledIn(m sched.Machine, t *proc.Task, c machine.CoreID) {
	s := stamp()
	p.inner.ScheduledIn(m, t, c)
	p.st.hooks.add(stamp() - s)
}

func (p *policyTracer) Blocked(m sched.Machine, t *proc.Task, c machine.CoreID) {
	s := stamp()
	p.inner.Blocked(m, t, c)
	p.st.hooks.add(stamp() - s)
}

func (p *policyTracer) Exited(m sched.Machine, t *proc.Task, c machine.CoreID, coreIdle bool) {
	s := stamp()
	p.inner.Exited(m, t, c, coreIdle)
	p.st.hooks.add(stamp() - s)
}

func (p *policyTracer) IdleSpin(m sched.Machine, c machine.CoreID) sim.Duration {
	s := stamp()
	d := p.inner.IdleSpin(m, c)
	p.st.hooks.add(stamp() - s)
	return d
}

func (p *policyTracer) CoreOffline(m sched.Machine, c machine.CoreID) { p.inner.CoreOffline(m, c) }

func (p *policyTracer) CoreOnline(m sched.Machine, c machine.CoreID) { p.inner.CoreOnline(m, c) }

// nestPolicy is the introspection a nest policy offers the runtime's
// gauges (PrimarySize, ReserveSize) and the invariant checker (NestView).
type nestPolicy interface {
	PrimarySize() int
	ReserveSize() int
	invariant.NestView
}

// nestTracer is a policyTracer that keeps a nest policy's views visible
// through the decorator. Only nest policies get it: a cfs policy that
// claimed to have a nest would make the runtime emit nest gauges.
type nestTracer struct {
	*policyTracer
	nestPolicy
}

func tracePolicy(p sched.Policy, st *policyStats) sched.Policy {
	t := &policyTracer{inner: p, st: st}
	if np, ok := p.(nestPolicy); ok {
		return nestTracer{t, np}
	}
	return t
}

// govTracer times governor requests.
type govTracer struct {
	inner governor.Governor
	st    *callStats
}

func (g *govTracer) Name() string { return g.inner.Name() }

func (g *govTracer) Request(spec *machine.Spec, util float64, active bool) governor.Request {
	s := stamp()
	r := g.inner.Request(spec, util, active)
	g.st.add(stamp() - s)
	return r
}

// recProbe wraps a grid cell's obs.Recorder. It notes when the cell
// starts (RunInfo, emitted once the names are resolved), when its first
// event past simulated time zero arrives (the run has begun) and when
// it ends (RunSummary); only a traced run reads the clock on every
// Record, to time it.
type recProbe struct {
	inner             obs.Recorder
	timed             bool
	start, first, end time.Duration
	events            int64
	record            time.Duration
}

func (p *recProbe) Record(ev obs.Event) {
	var t0 time.Duration
	if p.timed {
		t0 = stamp()
	}
	switch ev.(type) {
	case obs.RunInfo:
		p.start = stamp()
	case obs.RunSummary:
		p.end = stamp()
	default:
		if p.first == 0 && eventTime(ev) > 0 {
			p.first = stamp()
		}
	}
	p.events++
	p.inner.Record(ev)
	if p.timed {
		p.record += stamp() - t0
	}
}

// eventTime returns the simulated time of the event kinds a run emits
// first (0 for the rest).
func eventTime(ev obs.Event) sim.Time {
	switch e := ev.(type) {
	case obs.PlacementDecision:
		return e.T
	case obs.Migration:
		return e.T
	case obs.FreqGrant:
		return e.T
	case obs.GovernorRequest:
		return e.T
	case obs.CoreGauge:
		return e.T
	}
	return 0
}

// stepRec is one engine step as an Engine.OnStep sampler sees it: the
// event's time and the events still pending after it ran.
type stepRec struct {
	t       sim.Time
	pending int32
}

// maxSteps bounds the schedule kept per cell for the engine replay.
const maxSteps = 1 << 18

// engineTrace is the Engine.OnStep sampler of a recording run.
type engineTrace struct {
	eng   *sim.Engine
	steps []stepRec
	peak  int
}

func (e *engineTrace) onStep() {
	p := e.eng.Pending()
	if p > e.peak {
		e.peak = p
	}
	if len(e.steps) < maxSteps {
		e.steps = append(e.steps, stepRec{t: e.eng.Now(), pending: int32(p)})
	}
}
