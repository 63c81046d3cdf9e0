package main

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/experiments"
	"repro/internal/freqmodel"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pelt"
	"repro/internal/sim"
)

// recording is what the recording pass collects for the layer replays:
// each cell's engine schedule and 4 ms core_gauge samples.
type recording struct {
	steps  [][]stepRec
	events int64
	peak   int
	gauges []*gaugeSeq
}

// record runs every cell once more with an Engine.OnStep sampler and a
// hub keeping the 4 ms gauges. Gauges only observe, so each cell must
// still match its reference encoding once the hub's counter snapshot
// (Stats) is set aside on both sides.
func (b *bench) record() *recording {
	rec := &recording{}
	for i, rs := range b.specs {
		eng := sim.NewEngine()
		et := &engineTrace{eng: eng}
		eng.OnStep(et.onStep)
		var buf obs.SeriesBuffer
		c := runCell(rs, instruments{engine: eng, hub: obs.New(&buf), sample: gaugeEvery})
		b.attempted++
		err := c.err
		if err == nil {
			err = sameSansStats(c.res, b.ref[i])
		}
		if err != nil {
			b.fail(rs, err)
			continue
		}
		spec, err := machine.Preset(rs.Machine)
		if err != nil {
			b.fail(rs, err)
			continue
		}
		rec.steps = append(rec.steps, et.steps)
		rec.events += int64(eng.Steps())
		rec.peak = max(rec.peak, et.peak)
		rec.gauges = append(rec.gauges, newGaugeSeq(spec, buf.Cores))
	}
	return rec
}

// sameSansStats reports whether res encodes like ref apart from the
// obs counter snapshot.
func sameSansStats(res *metrics.Result, ref []byte) error {
	if ref == nil {
		return errors.New("no reference encoding")
	}
	want, err := experiments.DecodeResult(ref)
	if err != nil {
		return err
	}
	want.Stats = nil
	wb, err := experiments.EncodeResult(want)
	if err != nil {
		return err
	}
	got := *res
	got.Stats = nil
	gb, err := experiments.EncodeResult(&got)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return errors.New("recording run (gauges on) changed the simulated result")
	}
	return nil
}

// nsPer runs fn reps times and returns the median host nanoseconds per
// unit of work fn reports.
func nsPer(reps int, fn func() int) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		n := fn()
		d := time.Since(start)
		if n > 0 {
			xs = append(xs, float64(d.Nanoseconds())/float64(n))
		}
	}
	return median(xs)
}

const replayReps = 5

// ---- engine replay --------------------------------------------------

// replayEngine replays every recorded schedule on a fresh engine and
// returns host ns per dispatched event.
func (r *recording) replayEngine() float64 {
	return nsPer(replayReps, func() int {
		n := 0
		for _, s := range r.steps {
			n += replaySchedule(s)
		}
		return n
	})
}

// replaySchedule re-runs one recorded (time, pending) schedule through
// the engine's public API: a chain of PostRun events fires at the
// recorded times, and armed filler events keep the pending count at the
// recorded depth. Each step re-arms one filler (the runtime re-arms
// completion events the same way) at the time by which as many further
// events fired in the recorded run. It returns the events dispatched.
func replaySchedule(steps []stepRec) int {
	if len(steps) == 0 {
		return 0
	}
	c := &replayChain{eng: sim.NewEngine(), steps: steps}
	c.eng.PostRun(steps[0].t, c)
	c.eng.Run(0)
	return int(c.eng.Steps())
}

type replayChain struct {
	eng   *sim.Engine
	steps []stepRec
	i     int
	pool  []*filler // pool[:live] are armed
	live  int
	rr    int
}

type filler struct {
	ev  sim.Event
	pos int
	ch  *replayChain
}

// RunAt implements sim.Runner: a filler that was not re-armed in time
// fired; it leaves the armed set.
func (f *filler) RunAt(sim.Time) { f.ch.drop(f) }

func (c *replayChain) drop(f *filler) {
	last := c.pool[c.live-1]
	c.pool[f.pos], c.pool[last.pos] = last, f
	f.pos, last.pos = last.pos, f.pos
	c.live--
}

// RunAt implements sim.Runner: recorded step c.i fires.
func (c *replayChain) RunAt(now sim.Time) {
	i := c.i
	c.i++
	if c.i == len(c.steps) {
		for c.live > 0 {
			c.live--
			c.eng.Cancel(&c.pool[c.live].ev)
		}
		return
	}
	c.eng.PostRun(c.steps[c.i].t, c)
	target := int(c.steps[i].pending)
	ahead := min(i+target, len(c.steps)-1)
	when := now + (c.steps[ahead].t - c.steps[i].t) + 1
	for c.eng.Pending() < target {
		if c.live == len(c.pool) {
			c.pool = append(c.pool, &filler{pos: c.live, ch: c})
		}
		f := c.pool[c.live]
		c.live++
		c.eng.Arm(&f.ev, when, f)
	}
	for c.eng.Pending() > target && c.live > 0 {
		c.live--
		c.eng.Cancel(&c.pool[c.live].ev)
	}
	if c.live > 0 {
		c.rr = (c.rr + 1) % c.live
		f := c.pool[c.rr]
		c.eng.Arm(&f.ev, when, f)
	}
}

// ---- PELT and frequency-model replays --------------------------------

// Core states as the gauges report them.
const (
	stIdle uint8 = iota
	stBusy
	stSpin
	stOffline
)

// maxRows bounds the gauge samples kept per cell.
const maxRows = 4096

// gaugeSeq is one cell's per-core state at every 4 ms sample.
type gaugeSeq struct {
	spec  *machine.Spec
	times []sim.Time
	state []uint8 // row-major: state[row*cores+core]
}

func newGaugeSeq(spec *machine.Spec, cores []obs.CoreGauge) *gaugeSeq {
	n := spec.Topo.NumCores()
	g := &gaugeSeq{spec: spec}
	for _, cg := range cores {
		if k := len(g.times); k == 0 || g.times[k-1] != cg.T {
			if k == maxRows {
				break
			}
			g.times = append(g.times, cg.T)
			for c := 0; c < n; c++ {
				g.state = append(g.state, stOffline)
			}
		}
		st := stIdle
		switch cg.State {
		case "busy":
			st = stBusy
		case "spin":
			st = stSpin
		case "offline":
			st = stOffline
		}
		g.state[(len(g.times)-1)*n+cg.Core] = st
	}
	return g
}

// tickInputs is what the accounting pass hands the frequency model for
// every core and sample: activity, the governor's request, the socket's
// active physical cores and the HWP estimate.
type tickInputs struct {
	active     []bool
	req        []governor.Request
	hw         []float64
	sockActive []int // row-major per socket
	sockOf     []int
}

// replayPELT drives the busy/spin/idle sequence through a default PELT
// signal and a 2 ms half-life HWP signal per core, level changes and
// reads at every sample as the tick does. With keep it also records the
// frequency model's inputs. It returns the signal updates made.
func (g *gaugeSeq) replayPELT(keep *tickInputs) int {
	n := g.spec.Topo.NumCores()
	spin := 1.0
	if g.spec.Ramp == machine.SpeedStep {
		spin = 0.35
	}
	util := make([]pelt.Signal, n)
	hw := make([]pelt.Signal, n)
	for c := range hw {
		hw[c] = pelt.WithHalfLife(2 * sim.Millisecond)
	}
	updates := 0
	for r, t := range g.times {
		for c := 0; c < n; c++ {
			i := r*n + c
			st := g.state[i]
			if st == stOffline {
				continue
			}
			lv := 0.0
			switch st {
			case stBusy:
				lv = 1
			case stSpin:
				lv = spin
			}
			util[c].SetLevel(t, lv)
			u := util[c].Value(t)
			hw[c].SetLevel(t, lv)
			h := hw[c].Value(t)
			updates += 2
			if keep != nil {
				active := st != stIdle
				keep.active[i] = active
				keep.req[i] = governor.Schedutil{}.Request(g.spec, u, active)
				keep.hw[i] = h
			}
		}
	}
	return updates
}

// activeWindow is the hardware's activity lookback for the turbo budget
// (cpu.Config.ActiveWindow's default).
const activeWindow = 20 * sim.Millisecond

// inputs records the frequency model's per-sample inputs.
func (g *gaugeSeq) inputs() *tickInputs {
	topo := g.spec.Topo
	n, rows, socks := topo.NumCores(), len(g.times), topo.NumSockets()
	in := &tickInputs{
		active:     make([]bool, rows*n),
		req:        make([]governor.Request, rows*n),
		hw:         make([]float64, rows*n),
		sockActive: make([]int, rows*socks),
		sockOf:     make([]int, n),
	}
	g.replayPELT(in)
	last := make([]sim.Time, n)
	phys := make([]bool, topo.NumPhysical())
	for c := range last {
		last[c] = -sim.Second
		in.sockOf[c] = topo.Socket(machine.CoreID(c))
	}
	for r, t := range g.times {
		for p := range phys {
			phys[p] = false
		}
		for c := 0; c < n; c++ {
			if in.active[r*n+c] {
				last[c] = t
			}
			if last[c] >= t-activeWindow {
				phys[topo.Core(machine.CoreID(c)).Physical] = true
			}
		}
		for p, a := range phys {
			if a {
				in.sockActive[r*socks+p/topo.PhysPerSocket()]++
			}
		}
	}
	return in
}

// replayFreq drives the recorded inputs through freqmodel.TickUpdate
// and returns the core-ticks advanced.
func (g *gaugeSeq) replayFreq(in *tickInputs) int {
	n, socks := g.spec.Topo.NumCores(), g.spec.Topo.NumSockets()
	fm := freqmodel.New(g.spec)
	calls := 0
	for r := range g.times {
		for c := 0; c < n; c++ {
			i := r*n + c
			if g.state[i] == stOffline {
				continue
			}
			fm.TickUpdate(machine.CoreID(c), in.active[i], in.req[i], in.sockActive[r*socks+in.sockOf[c]], in.hw[i])
			calls++
		}
	}
	return calls
}

// replayPhysics returns host ns per PELT signal update and per
// frequency-model core-tick over every recorded cell.
func (r *recording) replayPhysics() (peltNS, freqNS float64) {
	peltNS = nsPer(replayReps, func() int {
		n := 0
		for _, g := range r.gauges {
			n += g.replayPELT(nil)
		}
		return n
	})
	ins := make([]*tickInputs, len(r.gauges))
	for i, g := range r.gauges {
		ins[i] = g.inputs()
	}
	freqNS = nsPer(replayReps, func() int {
		n := 0
		for i, g := range r.gauges {
			n += g.replayFreq(ins[i])
		}
		return n
	})
	return peltNS, freqNS
}
