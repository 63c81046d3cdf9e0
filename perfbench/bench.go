package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// bench runs one workload's cells, pass after pass, and keeps the
// correctness record.
type bench struct {
	wl    workloadDef
	specs []experiments.RunSpec
	kinds []int // per cell: its group and scheduler (see workloadDef.specs)
	tmp   string
	dur   time.Duration
	heap  *heapPeak    // end-to-end run only
	calib *calibKernel // end-to-end run only
	// ref and res are the first pass's encoded results and results; every
	// later pass, traced or not, must encode to the same bytes.
	ref       []json.RawMessage
	res       []*metrics.Result
	attempted int
	failed    int
	failures  []string
}

func newBench(wl workloadDef, o options, tmp string) *bench {
	specs, kinds := wl.specs(o.seed, o.scale)
	return &bench{
		wl:    wl,
		specs: specs,
		kinds: kinds,
		tmp:   tmp,
		dur:   time.Duration(o.seconds) * time.Second,
	}
}

// pass is one run over every cell of the workload.
type pass struct {
	setup []time.Duration // per cell: wall time before its first event
	run   []time.Duration // per cell: wall time from its first event to its end
	// cal is each cell's calibration: the kernel's duration around it
	// (end-to-end run only).
	cal   []time.Duration
	extra time.Duration // pass-level set-up: grid-observed's journal and sinks
	// wall is the whole pass, set-up included and calibration excluded;
	// calWall is the kernel's duration around the pass.
	wall, calWall time.Duration
	res           []*metrics.Result
	raw           []json.RawMessage
	errs          []error
	// encode is the time experiments.EncodeResult took over the pass.
	encode time.Duration
	// allocs are runtime.MemStats deltas: one per cell where cells run
	// one at a time, one for the whole pass in grid-observed, where they
	// overlap.
	allocs []memSnap
	// peak is the highest heap in use seen during the cells (end-to-end
	// run only).
	peak uint64
	grid gridStats
}

func newPass(n int) *pass {
	return &pass{
		setup: make([]time.Duration, n),
		run:   make([]time.Duration, n),
		cal:   make([]time.Duration, n),
		res:   make([]*metrics.Result, n),
		raw:   make([]json.RawMessage, n),
		errs:  make([]error, n),
	}
}

// encodeAll encodes every result, timing the encoder.
func (p *pass) encodeAll() {
	start := time.Now()
	for i, r := range p.res {
		if r == nil {
			continue
		}
		raw, err := experiments.EncodeResult(r)
		if err != nil && p.errs[i] == nil {
			p.errs[i] = err
		}
		p.raw[i] = raw
	}
	p.encode = time.Since(start)
}

// memSnap is the allocation counters at one instant, or their growth
// between two.
type memSnap struct{ mallocs, bytes uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc}
}

// since returns the allocations made from m0 to a fresh reading.
func since(m0 memSnap) memSnap {
	m1 := readMem()
	return memSnap{m1.mallocs - m0.mallocs, m1.bytes - m0.bytes}
}

// runPass runs every cell once — traced when tr is non-nil — and applies
// the correctness gate. The pass keeps only its measurements: its results
// are dropped once checked, so no pass's heap carries into the next.
func (b *bench) runPass(tr *tracer) *pass {
	// Each pass starts from a collected heap, so its heap peak and
	// allocation pattern do not depend on what the previous pass left.
	runtime.GC()
	var p *pass
	if b.wl.grid {
		p = b.gridPass(tr)
	} else {
		p = b.cellPass(tr)
	}
	b.gate(p)
	p.res, p.raw = nil, nil
	return p
}

// cellPass runs the cells one after another on this goroutine. In the
// end-to-end run a calibration kernel runs before each cell and after
// the last; a cell's calibration is the mean of the two around it.
func (b *bench) cellPass(tr *tracer) *pass {
	p := newPass(len(b.specs))
	b.heap.take()
	before := b.calib.run()
	var weighted float64
	for i, rs := range b.specs {
		m0 := readMem()
		c := runCell(rs, tr.instruments(rs))
		p.allocs = append(p.allocs, since(m0))
		after := b.calib.run()
		p.cal[i] = (before + after) / 2
		before = after
		p.setup[i], p.run[i], p.res[i], p.errs[i] = c.setup, c.run, c.res, c.err
		p.wall += c.setup + c.run
		weighted += float64(p.cal[i]) * float64(c.setup+c.run)
	}
	// The pass's calibration is its cells', weighted by their time.
	p.calWall = time.Duration(ratio(weighted, float64(p.wall)))
	p.peak = b.heap.take()
	p.encodeAll()
	return p
}

// gate is the correctness check of one pass: a cell fails on an error
// or panic, a failed checkResult, a violated pair rule, or an encoding
// that differs from the first pass's.
func (b *bench) gate(p *pass) {
	pairs := b.wl.checkPairs(p.res)
	for i, rs := range b.specs {
		b.attempted++
		err := p.errs[i]
		if err == nil {
			err = checkResult(p.res[i])
		}
		if err == nil && pairs[i] != "" {
			err = errors.New(pairs[i])
		}
		if err == nil && b.ref != nil && !bytes.Equal(p.raw[i], b.ref[i]) {
			err = errors.New("encoded result differs from the reference pass")
		}
		if err != nil {
			b.fail(rs, err)
		}
	}
	if b.ref == nil {
		b.ref, b.res = p.raw, p.res
	}
}

func (b *bench) fail(rs experiments.RunSpec, err error) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, rs.String()+": "+err.Error())
	}
}

// digest hashes every cell's reference encoding: a change that only
// speeds the simulator up leaves it unchanged.
func (b *bench) digest() string {
	h := sha256.New()
	for _, raw := range b.ref {
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// endToEnd measures the workload with tracing off: one warm-up pass that
// fills caches and fixes the reference encodings, then passes until the
// time is up. It writes one line per cell to log.
func (b *bench) endToEnd(log io.Writer) map[string]float64 {
	b.calib = newCalibKernel()
	b.runPass(nil)
	b.heap = startHeapPeak(time.Millisecond)
	defer b.heap.close()
	var ps []*pass
	start := time.Now()
	for len(ps) == 0 || time.Since(start) < b.dur {
		ps = append(ps, b.runPass(nil))
	}

	// Every timing is normalised by the calibration kernel runs around it
	// (see calib.go). Each cell's timings are lower quartiles over the
	// passes, its allocations medians; a kind (a group under one
	// scheduler) pools its cells' figures and simulated seconds over the
	// group's seeds, and the workload figure is the geometric mean over
	// kinds, so every kind weighs equally.
	norm := func(d, cal time.Duration) float64 {
		return ratio(float64(d), float64(cal)) * calibRefNS
	}
	nk := b.kinds[len(b.kinds)-1] + 1
	run, raw, sim := make([]float64, nk), make([]float64, nk), make([]float64, nk)
	allocs, allocMB := make([]float64, nk), make([]float64, nk)
	perCell := len(ps[0].allocs) == len(b.specs)
	var setupNS, simTotal float64
	for i, rs := range b.specs {
		runs, raws, setups := make([]float64, len(ps)), make([]float64, len(ps)), make([]float64, len(ps))
		mallocs, bytes := make([]float64, len(ps)), make([]float64, len(ps))
		for k, p := range ps {
			runs[k] = norm(p.run[i], p.cal[i])
			raws[k] = float64(p.run[i])
			setups[k] = norm(p.setup[i], p.cal[i])
			if perCell {
				mallocs[k], bytes[k] = float64(p.allocs[i].mallocs), float64(p.allocs[i].bytes)
			}
		}
		simS := 0.0
		if r := b.res[i]; r != nil {
			simS = r.Runtime.Seconds()
		}
		k := b.kinds[i]
		runQ, setupQ := lowQuartile(runs), lowQuartile(setups)
		run[k] += runQ
		raw[k] += lowQuartile(raws)
		sim[k] += simS
		allocs[k] += median(mallocs)
		allocMB[k] += median(bytes) / 1e6
		setupNS += setupQ
		simTotal += simS
		fmt.Fprintf(log, "cell %-52s setup_ms %8.3f run_ms %9.2f sim_s %8.3f\n",
			rs.String(), setupQ/1e6, runQ/1e6, simS)
	}
	perSimS := func(xs []float64) []float64 {
		out := make([]float64, nk)
		for k := range out {
			out[k] = ratio(xs[k], sim[k])
		}
		return out
	}
	var extras, walls, peaks, cals, passAllocs, passMB []float64
	for _, p := range ps {
		extras = append(extras, norm(p.extra, p.calWall))
		walls = append(walls, norm(p.wall, p.calWall))
		peaks = append(peaks, float64(p.peak)/1e6)
		cals = append(cals, float64(p.calWall))
		if !perCell {
			passAllocs = append(passAllocs, ratio(float64(p.allocs[0].mallocs), simTotal))
			passMB = append(passMB, ratio(float64(p.allocs[0].bytes)/1e6, simTotal))
		}
	}
	allocRate, mbRate := geomean(perSimS(allocs)), geomean(perSimS(allocMB))
	if !perCell {
		// grid-observed's cells overlap: only the whole pass's allocations
		// are known.
		allocRate, mbRate = median(passAllocs), median(passMB)
	}
	fmt.Fprintf(log, "passes %d calibration_kernel_ms %.3f (reference %.3f) uncalibrated_ns_per_sim_s %.6g\n",
		len(ps), median(cals)/1e6, calibRefNS/1e6, geomean(perSimS(raw)))
	return map[string]float64{
		"ns_per_sim_s":       geomean(perSimS(run)),
		"cells_per_s":        ratio(float64(len(b.specs)), lowQuartile(walls)/1e9),
		"setup_s":            (setupNS + lowQuartile(extras)) / 1e9,
		"allocs_per_sim_s":   allocRate,
		"alloc_mb_per_sim_s": mbRate,
		"peak_heap_mb":       median(peaks),
	}
}

// heapPeak samples the heap in use on its own goroutine and keeps the
// highest value seen. A nil *heapPeak is inert.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

// heapInUse is the runtime metric heapPeak samples: bytes of heap
// objects, live or not yet swept.
const heapInUse = "/memory/classes/heap/objects:bytes"

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: heapInUse}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(s)
			}
		}
	}()
	return h
}

func (h *heapPeak) observe(s []rtmetrics.Sample) {
	rtmetrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take samples once more and returns the peak since the last take.
func (h *heapPeak) take() uint64 {
	if h == nil {
		return 0
	}
	h.observe([]rtmetrics.Sample{{Name: heapInUse}})
	return h.peak.Swap(0)
}

func (h *heapPeak) close() {
	close(h.stop)
	<-h.done
}
