package obs

import (
	"slices"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TracePoint records that a core was busy at a tick, and at what
// frequency — the raw material of the paper's execution traces
// (Figures 2, 8 and 9).
type TracePoint struct {
	Tick int32 // tick index since trace start
	Core int32
	Freq machine.FreqMHz
}

// Trace is a Recorder that rebuilds the per-tick activity of a window
// [Start, End) from the gauge stream. Attach it with SampleEvery equal
// to sim.Tick, so that every tick carries a gauge batch:
//
//	tr := obs.NewTrace(0, 300*sim.Millisecond)
//	cfg.Obs, cfg.SampleEvery = obs.New(tr), sim.Tick
//
// A busy CoreGauge inside the window becomes a point; an UnderloadGauge
// inside the window appends to UnderloadSeries. The trace samples each
// core as the tick's frequency pass saw it, before periodic balancing:
// a core that a periodic TickBalance filled at the batch's instant
// went busy after that pass, so its gauge is skipped. A nil *Trace
// reports no cores and no ticks.
type Trace struct {
	Start, End sim.Time
	Points     []TracePoint
	// UnderloadSeries holds the §5.2 underload value of each tick
	// interval inside the window (Figure 3).
	UnderloadSeries []int

	// pulled holds the destination cores of the periodic balances
	// emitted at pulledAt.
	pulledAt sim.Time
	pulled   []int
}

// NewTrace returns a trace capturing [start, end).
func NewTrace(start, end sim.Time) *Trace {
	return &Trace{Start: start, End: end}
}

func (tr *Trace) active(t sim.Time) bool {
	return t >= tr.Start && t < tr.End
}

// Record implements Recorder.
func (tr *Trace) Record(ev Event) {
	switch e := ev.(type) {
	case TickBalance:
		if e.Kind2 != "periodic" {
			return
		}
		if e.T != tr.pulledAt {
			tr.pulledAt, tr.pulled = e.T, tr.pulled[:0]
		}
		tr.pulled = append(tr.pulled, e.To)
	case *CoreGauge:
		if e.State != "busy" || !tr.active(e.T) {
			return
		}
		if e.T == tr.pulledAt && slices.Contains(tr.pulled, e.Core) {
			return
		}
		tr.Points = append(tr.Points, TracePoint{
			Tick: int32((e.T - tr.Start) / sim.Tick),
			Core: int32(e.Core),
			Freq: machine.FreqMHz(e.FreqMHz),
		})
	case *UnderloadGauge:
		if tr.active(e.T) {
			tr.UnderloadSeries = append(tr.UnderloadSeries, e.Underload)
		}
	}
}

// CoresUsed returns the distinct cores that appear in the trace, sorted.
func (tr *Trace) CoresUsed() []machine.CoreID {
	if tr == nil {
		return nil
	}
	seen := map[machine.CoreID]bool{}
	var out []machine.CoreID
	for _, p := range tr.Points {
		c := machine.CoreID(p.Core)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// Ticks returns the number of tick columns the trace spans.
func (tr *Trace) Ticks() int {
	if tr == nil {
		return 0
	}
	return int((tr.End - tr.Start + sim.Tick - 1) / sim.Tick)
}
