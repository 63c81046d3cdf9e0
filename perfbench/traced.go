package main

import (
	"bytes"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

// tracer collects a traced run's decorator measurements.
type tracer struct {
	policies map[string]*policyStats // by layer: cfs, core, smove
	gov      callStats
}

func newTracer() *tracer {
	t := &tracer{policies: map[string]*policyStats{}}
	for _, l := range policyLayers {
		t.policies[l] = &policyStats{}
	}
	return t
}

// policyLayer names the package of a scheduler: nest lives in
// internal/core.
func policyLayer(sched string) string {
	if sched == "nest" {
		return "core"
	}
	return sched
}

// instruments decorates a cell's policy and governor; a nil tracer
// decorates nothing.
func (t *tracer) instruments(rs experiments.RunSpec) instruments {
	if t == nil {
		return instruments{}
	}
	return instruments{policy: t.policies[policyLayer(rs.Scheduler)], gov: &t.gov}
}

func (g *gridStats) add(o gridStats) {
	g.poolWall += o.poolWall
	g.busy += o.busy
	g.events += o.events
	g.record += o.record
	g.jsonlBytes += o.jsonlBytes
	g.journalBytes += o.journalBytes
	g.load += o.load
	g.appends.n += o.appends.n
	g.appends.d += o.appends.d
}

// gcSnap is the garbage collector's cumulative cost at one instant.
type gcSnap struct {
	gc, busy float64 // CPU seconds: GC, and everything but idle
	pause    uint64  // ns
	cycles   uint32
}

func readGC() gcSnap {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{
		gc:     s[0].Value.Float64(),
		busy:   s[1].Value.Float64() - s[2].Value.Float64(),
		pause:  ms.PauseTotalNs,
		cycles: ms.NumGC,
	}
}

func (g *gcSnap) addDelta(a, b gcSnap) {
	g.gc += b.gc - a.gc
	g.busy += b.busy - a.busy
	g.pause += b.pause - a.pause
	g.cycles += b.cycles - a.cycles
}

// traced is the per-layer run. Each round runs three passes: a plain
// one (the reference for the tracing overhead), one under a CPU profile
// bucketed by package, and one with the policy and governor decorators
// and timed obs recorders. Every pass's cells are held byte-identical
// to the reference pass. Rounds repeat until the time is up; a
// recording pass then captures the engine schedule and 4 ms gauges the
// layer replays run on.
func (b *bench) traced() (map[string]float64, error) {
	b.runPass(nil)
	tr := newTracer()
	samples := map[string]int64{}
	n := len(b.specs)
	var runA, wallA, wallT, encode time.Duration
	var gridA, gridD gridStats
	var gc gcSnap
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < b.dur {
		g0 := readGC()
		a := b.runPass(nil)
		gc.addDelta(g0, readGC())

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		pp := b.runPass(nil)
		pprof.StopCPUProfile()
		if err := addProfile(prof.Bytes(), samples); err != nil {
			return nil, fmt.Errorf("decoding the CPU profile: %w", err)
		}

		d := b.runPass(tr)
		wallA += a.wall
		wallT += pp.wall + d.wall
		encode += a.encode
		for i, rs := range b.specs {
			runA += a.run[i]
			if ps := tr.policies[policyLayer(rs.Scheduler)]; ps != nil {
				ps.run += d.run[i]
			}
		}
		gridA.add(a.grid)
		gridD.add(d.grid)
		passes++
	}
	rec := b.record()

	np := float64(passes)
	m := map[string]float64{
		"sim.events":              float64(rec.events),
		"sim.ns_per_event":        ratio(float64(runA.Nanoseconds())/np, float64(rec.events)),
		"sim.pending_peak":        float64(rec.peak),
		"sim.replay_ns_per_event": rec.replayEngine(),
	}
	var selects float64
	for _, l := range policyLayers {
		ps := tr.policies[l]
		m[l+".selects"] = float64(ps.selects.n) / np
		m[l+".select_ns"] = ps.selects.meanNS()
		m[l+".select_share"] = ratio(float64(ps.selects.d), float64(ps.run))
		m[l+".hook_ns"] = ps.hooks.meanNS()
		selects += float64(ps.selects.n) / np
	}

	var examined, offered, base, completed, issued, cancelled, hedges, wins, simS float64
	for _, r := range b.res {
		if r == nil {
			continue
		}
		simS += r.Runtime.Seconds()
		examined += float64(r.Counters.CoresExamined)
		m["cpu.ctx_switches"] += float64(r.Counters.CtxSwitches)
		m["cpu.migrations"] += float64(r.Counters.Migrations)
		m["cpu.spin_ticks"] += float64(r.Counters.SpinTicksTotal)
		c := r.Custom
		offered += c["ovl_offered"]
		base += c["ovl_offered"] - c["ovl_retries"]
		completed += c["ovl_completed"]
		issued += c["fan_issued"]
		cancelled += c["fan_cancelled"]
		hedges += c["fan_hedges"]
		wins += c["fan_hedge_wins"]
	}
	m["cpu.cores_examined_per_select"] = ratio(examined, selects)
	m["pelt.replay_ns_per_update"], m["freqmodel.replay_ns_per_tick"] = rec.replayPhysics()
	m["governor.requests"] = float64(tr.gov.n) / np
	m["governor.request_ns"] = tr.gov.meanNS()
	m["workload.attempt_amp"] = ratio(offered, base)
	m["workload.goodput_ratio"] = ratio(completed, offered)
	m["workload.subtasks"] = issued
	m["workload.hedge_win_ratio"] = ratio(wins, hedges)
	m["workload.cancel_ratio"] = ratio(cancelled, issued)

	m["obs.events"] = float64(gridD.events) / np
	m["obs.record_ns"] = ratio(float64(gridD.record), float64(gridD.events))
	m["obs.jsonl_bytes_per_sim_s"] = ratio(float64(gridD.jsonlBytes)/np, simS)
	m["checkpoint.append_ns"] = gridD.appends.meanNS()
	m["checkpoint.load_ns_per_cell"] = ratio(float64(gridA.load)/np, float64(n))
	m["checkpoint.journal_bytes"] = float64(gridA.journalBytes) / np
	m["experiments.worker_busy_ratio"] = ratio(float64(gridA.busy), gridWorkers*float64(gridA.poolWall))
	m["experiments.encode_ns"] = ratio(float64(encode), np*float64(n))

	m["go.gc_cpu_fraction"] = ratio(gc.gc, gc.busy)
	m["go.gc_pause_ms"] = ratio(float64(gc.pause)/1e6, float64(gc.cycles))
	// The two traced passes of a round against twice its plain pass.
	m["trace_overhead_pct"] = 100 * ratio(float64(wallT-2*wallA), float64(2*wallA))

	var total int64
	for _, s := range samples {
		total += s
	}
	for _, l := range cpuShareLayers {
		m[l+".cpu_share"] = ratio(float64(samples[l]), float64(total))
	}
	return m, nil
}
