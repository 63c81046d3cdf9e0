package experiments

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// traceRun executes one traced run and returns the trace and result.
// The run's events also reach opt.Obs, when set, as every measured
// cell's do.
func traceRun(machineName string, cfg config, wl string, opt Options, window sim.Time) (*obs.Trace, *metrics.Result, error) {
	tr := obs.NewTrace(0, window)
	recs := []obs.Recorder{tr}
	if opt.Obs.Enabled() {
		recs = append(recs, opt.Obs)
	}
	rs := RunSpec{
		Machine: machineName, Scheduler: cfg.sched, Governor: cfg.gov,
		Workload: wl, Scale: opt.Scale, Seed: opt.Seed,
		Obs: obs.New(recs...), SampleEvery: sim.Tick,
	}
	res, err := Run(rs)
	if err != nil {
		return nil, nil, err
	}
	return tr, res, nil
}

// fig2 reproduces the LLVM-configure frequency traces (CFS vs Nest on
// the 5218, schedutil).
func fig2(opt Options) (*Report, error) {
	opt.fill()
	spec := machine.IntelXeon5218()
	edges := metrics.EdgesFor(spec)
	rep := &Report{ID: "fig2", Title: "Core frequency trace, LLVM configure (Ninja), 5218, schedutil"}
	for _, cfg := range []config{cfgCFSSched, cfgNestSched} {
		tr, res, err := traceRun("5218", cfg, "configure/llvm_ninja", opt, 300*sim.Millisecond)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		textplot.CoreTrace(&b, tr, edges)
		rep.Sections = append(rep.Sections, Section{
			Heading: cfg.String(),
			Pre:     b.String(),
			Notes: []string{
				fmt.Sprintf("cores used in window: %d; run time %v", len(tr.CoresUsed()), res.Runtime),
				"paper: CFS disperses over ~8 cores at mixed frequencies; Nest uses 2 cores at the top turbo bucket",
			},
		})
	}
	return rep, nil
}

// fig3 reproduces the underload time series for the same runs.
func fig3(opt Options) (*Report, error) {
	opt.fill()
	rep := &Report{ID: "fig3", Title: "Underload over time, LLVM configure (Ninja), 5218, schedutil"}
	for _, cfg := range []config{cfgCFSSched, cfgNestSched} {
		tr, _, err := traceRun("5218", cfg, "configure/llvm_ninja", opt, 300*sim.Millisecond)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		textplot.UnderloadSeries(&b, cfg.String(), tr.UnderloadSeries, 72)
		rep.Sections = append(rep.Sections, Section{Heading: cfg.String(), Pre: b.String()})
	}
	rep.Sections = append(rep.Sections, Section{Notes: []string{
		"paper: CFS shows sustained underload up to 6; with Nest it has almost disappeared",
	}})
	return rep, nil
}

// suiteGrid runs a workload list across machines and the standard
// configurations, building one section per machine from render.
func suiteGrid(id, title string, workloads []string, cfgs []config, opt Options,
	render func(wl string, cells map[config]*cell) []string, cols []string) (*Report, error) {
	opt.fill()
	machines := machinesOrDefault(opt, paperMachineNames)
	reqs := make([]cellReq, 0, len(machines)*len(workloads)*len(cfgs))
	for _, mach := range machines {
		for _, wl := range workloads {
			for _, cfg := range cfgs {
				reqs = append(reqs, cellReq{mach: mach, cfg: cfg, wl: wl})
			}
		}
	}
	cells, err := measureGrid(reqs, opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: title}
	i := 0
	for _, mach := range machines {
		sec := Section{Heading: mach, Columns: cols}
		for _, wl := range workloads {
			byCfg := make(map[config]*cell, len(cfgs))
			for _, cfg := range cfgs {
				byCfg[cfg] = cells[i]
				i++
			}
			sec.Rows = append(sec.Rows, render(wl, byCfg))
		}
		rep.Sections = append(rep.Sections, sec)
	}
	return rep, nil
}

func configureWorkloads() []string {
	var out []string
	for _, n := range workload.ConfigureNames() {
		out = append(out, "configure/"+n)
	}
	return out
}

func dacapoWorkloads() []string {
	var out []string
	for _, n := range workload.DacapoNames() {
		out = append(out, "dacapo/"+n)
	}
	return out
}

func nasWorkloads() []string {
	var out []string
	for _, k := range []string{"bt.C", "cg.C", "ep.C", "ft.C", "is.C", "lu.C", "mg.C", "sp.C", "ua.C"} {
		out = append(out, "nas/"+k)
	}
	return out
}

func phoronixWorkloads() []string {
	var out []string
	for _, n := range workload.PhoronixNamed() {
		out = append(out, "phoronix/"+n)
	}
	return out
}

func shortName(wl string) string {
	if i := strings.IndexByte(wl, '/'); i >= 0 {
		return wl[i+1:]
	}
	return wl
}

// fig4: underload per interval, configure suite.
func fig4(opt Options) (*Report, error) {
	cfgs := paperConfigs
	cols := []string{"app", "CFS-sched", "CFS-perf", "Nest-sched", "Nest-perf"}
	return suiteGrid("fig4", "Configure: underload (mean per 4ms interval)",
		configureWorkloads(), cfgs, opt,
		func(wl string, cells map[config]*cell) []string {
			row := []string{shortName(wl)}
			for _, cfg := range cfgs {
				row = append(row, fmt.Sprintf("%.2f", cells[cfg].first().UnderloadAvg))
			}
			return row
		}, cols)
}

// speedupRow renders baseline time ± std plus speedups for the others.
func speedupRow(wl string, cells map[config]*cell, others []config) []string {
	base := cells[cfgCFSSched]
	row := []string{
		shortName(wl),
		fmt.Sprintf("%.3fs ±%.0f%%", base.meanTime(), base.stdPct()),
	}
	for _, cfg := range others {
		row = append(row, pct(metrics.Speedup(base.meanTime(), cells[cfg].meanTime())))
	}
	return row
}

// fig5: configure speedups including Smove.
func fig5(opt Options) (*Report, error) {
	cfgs := []config{cfgCFSSched, cfgCFSPerf, cfgNestSched, cfgNestPerf, cfgSmoveSched}
	others := cfgs[1:]
	cols := []string{"app", "CFS-sched", "CFS-perf", "Nest-sched", "Nest-perf", "Smove-sched"}
	return suiteGrid("fig5", "Configure: speedup vs CFS-schedutil",
		configureWorkloads(), cfgs, opt,
		func(wl string, cells map[config]*cell) []string {
			return speedupRow(wl, cells, others)
		}, cols)
}

// topBucketShare sums the shares of the top-two frequency buckets.
func topBucketShare(r *metrics.Result) float64 {
	n := len(r.FreqHist.Weight)
	if n < 2 {
		return r.FreqHist.Share(n - 1)
	}
	return r.FreqHist.Share(n-1) + r.FreqHist.Share(n-2)
}

// fig6: configure frequency distributions — the full per-bucket shares
// of busy-core time, one table per machine and configuration, plus a
// summary column of the two highest buckets.
func fig6(opt Options) (*Report, error) {
	return freqDistribution("fig6", "Configure: busy-core frequency distribution", configureWorkloads(), opt)
}

// freqDistribution renders full per-bucket busy-time shares.
func freqDistribution(id, title string, workloads []string, opt Options) (*Report, error) {
	opt.fill()
	machines := machinesOrDefault(opt, paperMachineNames)
	reqs := make([]cellReq, 0, len(machines)*len(paperConfigs)*len(workloads))
	for _, mach := range machines {
		for _, cfg := range paperConfigs {
			for _, wl := range workloads {
				reqs = append(reqs, cellReq{mach: mach, cfg: cfg, wl: wl})
			}
		}
	}
	cells, err := measureGrid(reqs, opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: title}
	i := 0
	for _, mach := range machines {
		for _, cfg := range paperConfigs {
			var sec Section
			sec.Heading = fmt.Sprintf("%s, %s", mach, cfg)
			for _, wl := range workloads {
				c := cells[i]
				i++
				h := c.first().FreqHist
				if len(sec.Columns) == 0 {
					sec.Columns = []string{"app"}
					for i := range h.Weight {
						sec.Columns = append(sec.Columns, h.BucketLabel(i))
					}
					sec.Columns = append(sec.Columns, "top-two")
				}
				row := []string{shortName(wl)}
				for i := range h.Weight {
					row = append(row, fmt.Sprintf("%.0f%%", 100*h.Share(i)))
				}
				row = append(row, fmt.Sprintf("%.0f%%", 100*topBucketShare(c.first())))
				sec.Rows = append(sec.Rows, row)
			}
			rep.Sections = append(rep.Sections, sec)
		}
	}
	return rep, nil
}

// fig7: configure energy savings vs CFS-schedutil.
func fig7(opt Options) (*Report, error) {
	cfgs := paperConfigs
	cols := []string{"app", "CFS-sched (J)", "CFS-perf", "Nest-sched", "Nest-perf"}
	return suiteGrid("fig7", "Configure: CPU energy savings vs CFS-schedutil",
		configureWorkloads(), cfgs, opt,
		func(wl string, cells map[config]*cell) []string {
			base := cells[cfgCFSSched].meanEnergy()
			row := []string{shortName(wl), fmt.Sprintf("%.1f", base)}
			for _, cfg := range cfgs[1:] {
				row = append(row, pct(metrics.Speedup(base, cells[cfg].meanEnergy())))
			}
			return row
		}, cols)
}

// fig8 traces a typical h2 run under CFS and Nest on the 4-socket 6130.
func fig8(opt Options) (*Report, error) {
	opt.fill()
	spec := machine.IntelXeon6130(4)
	edges := metrics.EdgesFor(spec)
	rep := &Report{ID: "fig8", Title: "h2 execution trace, 4-socket 6130, schedutil (1s window)"}
	for _, cfg := range []config{cfgCFSSched, cfgNestSched} {
		tr, res, err := traceRun("6130-4", cfg, "dacapo/h2", opt, sim.Second)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		textplot.CoreTrace(&b, tr, edges)
		rep.Sections = append(rep.Sections, Section{
			Heading: cfg.String(),
			Pre:     b.String(),
			Notes:   []string{fmt.Sprintf("cores used: %d, runtime %v", len(tr.CoresUsed()), res.Runtime)},
		})
	}
	return rep, nil
}

// fig9 hunts for a slow CFS h2 run (multi-socket dispersal) by scanning
// seeds and tracing the worst.
func fig9(opt Options) (*Report, error) {
	opt.fill()
	specs := make([]RunSpec, 8)
	for i := range specs {
		specs[i] = RunSpec{
			Machine: "6130-4", Scheduler: "cfs", Governor: "schedutil",
			Workload: "dacapo/h2", Scale: opt.Scale, Seed: opt.Seed + uint64(i),
		}
	}
	scan, err := RunGrid(specs, opt.pool())
	if err != nil {
		return nil, err
	}
	worstSeed, worstTime := opt.Seed, 0.0
	for i, res := range scan {
		if res.Runtime.Seconds() > worstTime {
			worstTime = res.Runtime.Seconds()
			worstSeed = specs[i].Seed
		}
	}
	o2 := opt
	o2.Seed = worstSeed
	tr, res, err := traceRun("6130-4", cfgCFSSched, "dacapo/h2", o2, sim.Second)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	textplot.CoreTrace(&b, tr, metrics.EdgesFor(machine.IntelXeon6130(4)))
	socks := map[int]bool{}
	topo := machine.IntelXeon6130(4).Topo
	for _, c := range tr.CoresUsed() {
		socks[topo.Socket(c)] = true
	}
	return &Report{ID: "fig9", Title: "Slow h2 run on CFS (worst of 8 seeds)", Sections: []Section{{
		Heading: fmt.Sprintf("cfs-sched, seed %d", worstSeed),
		Pre:     b.String(),
		Notes: []string{
			fmt.Sprintf("runtime %v; sockets touched: %d; cores used: %d", res.Runtime, len(socks), len(tr.CoresUsed())),
			"paper: slow runs disperse h2 across multiple sockets at low utilisation",
		},
	}}}, nil
}

// fig10: DaCapo speedups.
func fig10(opt Options) (*Report, error) {
	cfgs := paperConfigs
	cols := []string{"app", "CFS-sched", "CFS-perf", "Nest-sched", "Nest-perf", "u(CFS)"}
	return suiteGrid("fig10", "DaCapo: speedup vs CFS-schedutil",
		dacapoWorkloads(), cfgs, opt,
		func(wl string, cells map[config]*cell) []string {
			row := speedupRow(wl, cells, cfgs[1:])
			row = append(row, fmt.Sprintf("%.1f", cells[cfgCFSSched].first().UnderloadAvg))
			return row
		}, cols)
}

// fig11: DaCapo frequency distributions, full buckets as in Figure 11.
func fig11(opt Options) (*Report, error) {
	return freqDistribution("fig11", "DaCapo: busy-core frequency distribution", dacapoWorkloads(), opt)
}

// fig12: NAS speedups.
func fig12(opt Options) (*Report, error) {
	cfgs := paperConfigs
	cols := []string{"kernel", "CFS-sched", "CFS-perf", "Nest-sched", "Nest-perf"}
	return suiteGrid("fig12", "NAS: speedup vs CFS-schedutil",
		nasWorkloads(), cfgs, opt,
		func(wl string, cells map[config]*cell) []string {
			return speedupRow(wl, cells, cfgs[1:])
		}, cols)
}

// fig13: Phoronix selected tests.
func fig13(opt Options) (*Report, error) {
	cfgs := []config{cfgCFSSched, cfgCFSPerf, cfgNestSched}
	cols := []string{"test", "CFS-sched", "CFS-perf", "Nest-sched"}
	return suiteGrid("fig13", "Phoronix selected tests: speedup vs CFS-schedutil",
		phoronixWorkloads(), cfgs, opt,
		func(wl string, cells map[config]*cell) []string {
			return speedupRow(wl, cells, cfgs[1:])
		}, cols)
}

func init() {
	registerExperiment(&Experiment{ID: "fig2", Title: "LLVM configure frequency trace (CFS vs Nest)", Run: fig2})
	registerExperiment(&Experiment{ID: "fig3", Title: "LLVM configure underload trace", Run: fig3})
	registerExperiment(&Experiment{ID: "fig4", Title: "Configure underload", Run: fig4})
	registerExperiment(&Experiment{ID: "fig5", Title: "Configure speedups", Run: fig5})
	registerExperiment(&Experiment{ID: "fig6", Title: "Configure frequency distribution", Run: fig6})
	registerExperiment(&Experiment{ID: "fig7", Title: "Configure energy savings", Run: fig7})
	registerExperiment(&Experiment{ID: "fig8", Title: "h2 trace (typical)", Run: fig8})
	registerExperiment(&Experiment{ID: "fig9", Title: "h2 trace (slow CFS run)", Run: fig9})
	registerExperiment(&Experiment{ID: "fig10", Title: "DaCapo speedups", Run: fig10})
	registerExperiment(&Experiment{ID: "fig11", Title: "DaCapo frequency distribution", Run: fig11})
	registerExperiment(&Experiment{ID: "fig12", Title: "NAS speedups", Run: fig12})
	registerExperiment(&Experiment{ID: "fig13", Title: "Phoronix selected-test speedups", Run: fig13})
}
