// Command nestsim runs one workload on one simulated machine under one
// scheduler/governor pair and prints the measurements.
//
// Usage:
//
//	nestsim -machine 5218 -sched nest -gov schedutil -workload configure/llvm_ninja -scale 0.04 -runs 3
//
// Compare schedulers directly:
//
//	nestsim -machine 5218 -workload configure/llvm_ninja -compare
//
// Observability (see docs/OBSERVABILITY.md): -explain summarises the
// run's placement decisions, -counters dumps the counter registry,
// -events streams JSONL events, -prom writes Prometheus text exposition,
// and -chrometrace exports a decision-annotated Perfetto trace.
// -sample-every enables the periodic gauge sampler and -series writes
// the sampled time series as JSONL for cmd/nestobs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workload"
)

func main() {
	var (
		machineName  = flag.String("machine", "5218", "machine preset (6130-2, 6130-4, 5218, e7-8870, 5220, 4650g)")
		schedName    = flag.String("sched", "cfs", "scheduler: cfs, nest, smove, or nest:<flags>")
		govName      = flag.String("gov", "schedutil", "governor: schedutil or performance")
		wlName       = flag.String("workload", "configure/llvm_ninja", "workload name (see -list)")
		scale        = flag.Float64("scale", experiments.DefaultScale, "workload scale (1 = paper length)")
		runs         = flag.Int("runs", 3, "number of runs to average")
		seed         = flag.Uint64("seed", 1, "base RNG seed")
		list         = flag.Bool("list", false, "list available workloads and exit")
		compare      = flag.Bool("compare", false, "run the four paper configurations and print speedups")
		traceMS      = flag.Int("trace", 0, "render an ASCII core trace of the first N milliseconds")
		customPath   = flag.String("custom", "", "register a custom workload from a JSON spec file (see internal/workload.CustomSpec)")
		arrivalTrace = flag.String("arrival-trace", "", "register an open-loop serving workload replaying a JSONL arrival trace ({\"t_ns\":...,\"class\":...} per line)")
		admissionStr = flag.String("admission", "none", "admission policy for -arrival-trace: none, cap, token, codel, or a full spec like codel:target=2ms,interval=8ms")
		fanoutStr    = flag.String("fanout", "", "register a fan-out serving workload from a spec like fanout:width=16,stages=2,agg=quorum:12 (see docs/ROBUSTNESS.md)")
		hedgeStr     = flag.String("hedge", "", "hedging policy for -fanout: hedge:none, hedge:after=2ms,max=2, or hedge:after=p95")
		fanoutLoad   = flag.Float64("fanout-load", 0.9, "offered load for -fanout as a fraction of pool capacity")
		chromeOut    = flag.String("chrometrace", "", "write a decision-annotated Chrome/Perfetto trace to this file (with -runs > 1, run N goes to <name>.runN.json)")
		eventsOut    = flag.String("events", "", "stream decision events as JSONL to this file (first run only)")
		seriesOut    = flag.String("series", "", "write sampled gauge time series as JSONL to this file (first run only; implies -sample-every 4ms if unset)")
		sampleEvery  = flag.Duration("sample-every", 0, "emit per-core/nest/socket gauge samples at this sim-time interval (rounded up to the 4ms tick; 0 = off; never changes results)")
		countersOn   = flag.Bool("counters", false, "print the run's counter registry (first run only)")
		explainOn    = flag.Bool("explain", false, "print a placement-path/scan-cost/nest-size summary (first run only)")
		promOut      = flag.String("prom", "", "write the counter registry in Prometheus text exposition to this file")
		faultsSpec   = flag.String("faults", "", "fault plan, e.g. \"off:c3@2s+500ms,throttle:s0@1s=2.1GHz\" (see docs/ROBUSTNESS.md)")
		invariantsOn = flag.Bool("invariants", false, "sweep scheduler invariants after every event (first run only); exit non-zero on any violation")
		parallel     = flag.Int("parallel", 1, "workers for repeat mode: 1 = serial, -1 = GOMAXPROCS (results are byte-identical either way)")
		cellTO       = flag.Duration("cell-timeout", 0, "per-run wall-clock budget (0 = derive from scale, -1ns = no watchdog)")
		cpuProf      = flag.String("cpuprofile", "", "write a pprof CPU profile of the runs to this file")
		memProf      = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	)
	flag.Parse()

	profStop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nestsim:", err)
		os.Exit(1)
	}
	defer profStop()

	if *customPath != "" {
		f, err := os.Open(*customPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestsim:", err)
			os.Exit(1)
		}
		w, err := workload.RegisterCustom(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestsim:", err)
			os.Exit(1)
		}
		if *wlName == "configure/llvm_ninja" { // default: run the custom workload
			*wlName = w.Name
		}
	}

	if *arrivalTrace != "" {
		name, err := registerArrivalTrace(*arrivalTrace, *admissionStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestsim:", err)
			os.Exit(1)
		}
		if *wlName == "configure/llvm_ninja" { // default: run the trace workload
			*wlName = name
		}
	}

	if *hedgeStr != "" && *fanoutStr == "" {
		fmt.Fprintln(os.Stderr, "nestsim: -hedge needs -fanout")
		os.Exit(2)
	}
	if *fanoutStr != "" {
		const name = "fanout/custom"
		if err := workload.RegisterFanoutWorkload(name, *fanoutStr, *hedgeStr, *fanoutLoad); err != nil {
			fmt.Fprintln(os.Stderr, "nestsim:", err)
			os.Exit(1)
		}
		hedge := *hedgeStr
		if hedge == "" {
			hedge = "hedge:none"
		}
		fmt.Printf("registered %s: %s %s at %gx capacity\n", name, *fanoutStr, hedge, *fanoutLoad)
		if *wlName == "configure/llvm_ninja" { // default: run the fan-out workload
			*wlName = name
		}
	}

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}

	// Validate every externally supplied parameter up front and report
	// usage errors with exit status 2, before any run starts.
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "nestsim: -runs must be at least 1")
		os.Exit(2)
	}
	if *parallel == 0 {
		fmt.Fprintln(os.Stderr, "nestsim: -parallel must be 1 (serial), > 1, or -1 for GOMAXPROCS")
		os.Exit(2)
	}
	rs := experiments.RunSpec{
		Machine: *machineName, Scheduler: *schedName, Governor: *govName,
		Workload: *wlName, Scale: *scale, Seed: *seed, Faults: *faultsSpec,
	}
	if err := rs.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nestsim:", err)
		os.Exit(2)
	}
	if *invariantsOn {
		rs.Check = invariant.New()
	}
	if *sampleEvery < 0 {
		fmt.Fprintln(os.Stderr, "nestsim: -sample-every must not be negative")
		os.Exit(2)
	}
	if *seriesOut != "" && *sampleEvery == 0 {
		*sampleEvery = 4 * time.Millisecond
	}
	rs.SampleEvery = sim.Duration(*sampleEvery)

	if *compare {
		if err := runCompare(*machineName, *wlName, *scale, *runs, *seed, *faultsSpec, *invariantsOn, *parallel, *cellTO); err != nil {
			fmt.Fprintln(os.Stderr, "nestsim:", err)
			os.Exit(1)
		}
		return
	}

	if *traceMS > 0 {
		if err := runTraced(rs, *traceMS); err != nil {
			fmt.Fprintln(os.Stderr, "nestsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(rs, *runs, *parallel, *cellTO, *chromeOut, *eventsOut, *seriesOut, *promOut, *countersOn, *explainOn); err != nil {
		fmt.Fprintln(os.Stderr, "nestsim:", err)
		os.Exit(1)
	}
}

// traceCap bounds each kind of record (slices, markers, nest-size
// samples) a -chrometrace file keeps.
const traceCap = 2_000_000

// runMain executes the standard flow: N runs, the first carrying any
// requested observers (events, series, explain, counters), spread over
// `workers` goroutines (repeats are independent simulations). Chrome
// traces are the exception: every repeat gets its own obs.ChromeTrace
// and its own output file, because one run's trace says nothing about
// the run-to-run variance a repeat exists to measure.
func runMain(rs experiments.RunSpec, runs, workers int, cellTO time.Duration, chromeOut, eventsOut, seriesOut, promOut string, countersOn, explainOn bool) error {
	var recs []obs.Recorder
	var jsonl *obs.JSONLRecorder
	var eventsF *os.File
	if eventsOut != "" {
		f, err := os.Create(eventsOut)
		if err != nil {
			return err
		}
		eventsF = f
		jsonl = obs.NewJSONL(f)
		recs = append(recs, jsonl)
	}
	var series *obs.SeriesBuffer
	if seriesOut != "" {
		series = &obs.SeriesBuffer{}
		recs = append(recs, series)
	}
	var explain *obs.Explain
	if explainOn {
		explain = obs.NewExplain()
		recs = append(recs, explain)
	}
	var traces []*obs.ChromeTrace
	if chromeOut != "" {
		ct := obs.NewChromeTrace(rs.Workload+" on "+rs.Machine+
			" ("+rs.Scheduler+"-"+rs.Governor+")", traceCap)
		recs = append(recs, ct)
		traces = append(traces, ct)
	}
	if len(recs) > 0 || countersOn || promOut != "" {
		rs.Obs = obs.New(recs...)
	}

	specs := experiments.RepeatSpecs(rs, runs)
	if chromeOut != "" {
		// Repeats beyond the first get a private hub carrying only their
		// own trace; the shared observers above stay on run 1.
		for i := 1; i < len(specs); i++ {
			ct := obs.NewChromeTrace(fmt.Sprintf("%s on %s (%s-%s) run %d",
				rs.Workload, rs.Machine, rs.Scheduler, rs.Governor, i+1), traceCap)
			specs[i].Obs = obs.New(ct)
			traces = append(traces, ct)
		}
	}
	results, err := experiments.RunGrid(specs,
		experiments.PoolOptions{Workers: workers, CellTimeout: cellTO})
	if err != nil {
		return err
	}
	printResults(rs, results)
	if rs.Check != nil {
		fmt.Printf("  invariants   %d violations in %d sweeps\n",
			rs.Check.Total(), rs.Check.Checks())
		for _, v := range rs.Check.Violations() {
			fmt.Println("   ", v)
		}
	}

	if explain != nil {
		fmt.Println()
		explain.WriteTo(os.Stdout)
	}
	if countersOn {
		fmt.Println()
		printCounters(results[0].Stats)
	}
	if promOut != "" {
		f, err := os.Create(promOut)
		if err != nil {
			return err
		}
		err = obs.WritePrometheus(f, rs.Obs.Counters(), map[string]string{
			"machine": rs.Machine, "sched": rs.Scheduler,
			"gov": rs.Governor, "workload": rs.Workload,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote counter exposition to %s\n", promOut)
	}
	if jsonl != nil {
		err := jsonl.Flush()
		if cerr := eventsF.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", jsonl.Lines(), eventsOut)
	}
	if series != nil {
		f, err := os.Create(seriesOut)
		if err != nil {
			return err
		}
		err = series.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d gauge samples to %s\n", series.Len(), seriesOut)
	}
	for i, ct := range traces {
		out := runFileName(chromeOut, i+1)
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		err = ct.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d slices, %d decision markers (%d dropped) for run %d/%d to %s\n",
			ct.Slices(), ct.Markers(), ct.Dropped(), i+1, runs, out)
	}
	if len(traces) > 0 {
		fmt.Println("open in ui.perfetto.dev or chrome://tracing")
	}
	if rs.Check != nil && rs.Check.Total() > 0 {
		return fmt.Errorf("%d invariant violations detected", rs.Check.Total())
	}
	return nil
}

// registerArrivalTrace loads a JSONL arrival trace and registers it as
// an open-loop serving workload ("trace/<basename>") on the overload
// reference pool under the given admission policy.
func registerArrivalTrace(path, policy string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sp := &workload.ArrivalSpec{Path: path}
	if err := sp.LoadTrace(f); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	base := filepath.Base(path)
	name := "trace/" + base[:len(base)-len(filepath.Ext(base))]
	if err := workload.RegisterTraceWorkload(name, sp.Trace, policy); err != nil {
		return "", err
	}
	fmt.Printf("registered %s: %d arrivals, admission %s\n", name, len(sp.Trace), policy)
	return name, nil
}

// runFileName derives the per-run trace file name: run 1 keeps the name
// as given, run N inserts ".runN" before the extension (trace.json →
// trace.run2.json; no extension → trace.run2).
func runFileName(path string, run int) string {
	if run <= 1 {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.run%d%s", path[:len(path)-len(ext)], run, ext)
}

// printCounters dumps the counter registry sorted by name.
func printCounters(stats *metrics.RunStats) {
	if stats == nil {
		fmt.Println("no counters recorded")
		return
	}
	fmt.Printf("counters (%d events recorded):\n", stats.Events)
	for _, n := range ordered.Keys(stats.Counters) {
		fmt.Printf("  %-28s %d\n", n, stats.Counters[n])
	}
}

// runTraced executes one run with a trace window and renders it.
func runTraced(rs experiments.RunSpec, ms int) error {
	spec, err := machine.Preset(rs.Machine)
	if err != nil {
		return err
	}
	tr := obs.NewTrace(0, sim.Time(ms)*sim.Millisecond)
	rs.Obs, rs.SampleEvery = obs.New(tr), sim.Tick
	res, err := experiments.Run(rs)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s, %s-%s: first %dms\n", rs.Workload, res.MachineName, rs.Scheduler, rs.Governor, ms)
	textplot.CoreTrace(os.Stdout, tr, metrics.EdgesFor(spec))
	textplot.UnderloadSeries(os.Stdout, "underload per 4ms interval", tr.UnderloadSeries, 75)
	fmt.Printf("full run: %v, %.1fJ\n", res.Runtime, res.EnergyJ)
	return nil
}

func printResults(rs experiments.RunSpec, results []*metrics.Result) {
	times := metrics.Runtimes(results)
	energies := metrics.Energies(results)
	r0 := results[0]
	fmt.Printf("%s on %s, %s-%s (scale %.3g, %d runs)\n",
		rs.Workload, r0.MachineName, rs.Scheduler, rs.Governor, rs.Scale, len(results))
	fmt.Printf("  runtime      %.4fs ± %.1f%%\n", metrics.Mean(times), pctStd(times))
	fmt.Printf("  energy       %.1fJ ± %.1f%%\n", metrics.Mean(energies), pctStd(energies))
	fmt.Printf("  underload    %.2f (avg/interval), %.1f/s\n", r0.UnderloadAvg, r0.UnderloadPerSec)
	tail := r0.WakeLatency.Tail()
	us := func(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }
	fmt.Printf("  wake tail    p50 %.1fµs  p95 %.1fµs  p99 %.1fµs  p99.9 %.1fµs\n",
		us(tail.P50), us(tail.P95), us(tail.P99), us(tail.P999))
	c := r0.Counters
	fmt.Printf("  forks %d  wakeups %d  ctxsw %d (cold %d)  migrations %d  balances %d  collisions %d  spinticks %d\n",
		c.Forks, c.Wakeups, c.CtxSwitches, c.ColdSwitches, c.Migrations, c.LoadBalances, c.Collisions, c.SpinTicksTotal)
	if offered := r0.Custom["ovl_offered"]; offered > 0 {
		fmt.Printf("  overload     offered %.0f  goodput %.0f/s  shed %.1f%%  timeout %.1f%%  retry amp %.2f\n",
			offered, r0.Custom["ovl_goodput"],
			100*r0.Custom["ovl_shed"]/offered, 100*r0.Custom["ovl_timeout"]/offered,
			r0.Custom["ovl_amp"])
	}
	if issued := r0.Custom["fan_issued"]; issued > 0 {
		fmt.Printf("  fan-out      subtasks %.0f  done %.1f%%  cancelled %.1f%%  timeout %.1f%%  shed %.1f%%  hedges %.0f (wins %.0f)  straggle %.0fµs\n",
			issued,
			100*r0.Custom["fan_done"]/issued, 100*r0.Custom["fan_cancelled"]/issued,
			100*r0.Custom["fan_timeout"]/issued, 100*r0.Custom["fan_shed"]/issued,
			r0.Custom["fan_hedges"], r0.Custom["fan_hedge_wins"],
			r0.Custom["fan_straggle_us"])
	}
	fmt.Printf("  freq distribution (busy-core time):\n")
	for i := range r0.FreqHist.Weight {
		fmt.Printf("    %-16s %5.1f%%\n", r0.FreqHist.BucketLabel(i), 100*r0.FreqHist.Share(i))
	}
}

func pctStd(xs []float64) float64 {
	m := metrics.Mean(xs)
	if m == 0 {
		return 0
	}
	return 100 * metrics.Stddev(xs) / m
}

func runCompare(machineName, wlName string, scale float64, runs int, seed uint64, faults string, invariants bool, workers int, cellTO time.Duration) error {
	configs := []struct{ sched, gov string }{
		{"cfs", "schedutil"},
		{"cfs", "performance"},
		{"nest", "schedutil"},
		{"nest", "performance"},
		{"smove", "schedutil"},
	}
	type row struct {
		name   string
		time   float64
		std    float64
		energy float64
		under  float64
		viol   int
	}
	var rows []row
	violations := 0
	for _, c := range configs {
		rs := experiments.RunSpec{
			Machine: machineName, Scheduler: c.sched, Governor: c.gov,
			Workload: wlName, Scale: scale, Seed: seed, Faults: faults,
		}
		if invariants {
			rs.Check = invariant.New()
		}
		results, err := experiments.RunRepeatsOpts(rs, runs,
			experiments.PoolOptions{Workers: workers, CellTimeout: cellTO})
		if err != nil {
			return err
		}
		times := metrics.Runtimes(results)
		r := row{
			name:   c.sched + "-" + c.gov,
			time:   metrics.Mean(times),
			std:    pctStd(times),
			energy: metrics.Mean(metrics.Energies(results)),
			under:  results[0].UnderloadAvg,
		}
		if rs.Check != nil {
			r.viol = rs.Check.Total()
			violations += r.viol
		}
		rows = append(rows, r)
	}
	base := rows[0].time
	baseE := rows[0].energy
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s on %s (scale %.3g, %d runs)\n", wlName, machineName, scale, runs)
	head := "config\truntime\tstddev\tspeedup\tenergy\tsavings\tunderload"
	if invariants {
		head += "\tviolations"
	}
	fmt.Fprintln(w, head)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.4fs\t±%.1f%%\t%+.1f%%\t%.1fJ\t%+.1f%%\t%.2f",
			r.name, r.time, r.std, 100*metrics.Speedup(base, r.time),
			r.energy, 100*metrics.Speedup(baseE, r.energy), r.under)
		if invariants {
			fmt.Fprintf(w, "\t%d", r.viol)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations detected", violations)
	}
	return nil
}
