// Benchmarks regenerating each of the paper's tables and figures at a
// reduced scale. Each benchmark reports the headline quantity of its
// artefact as a custom metric (speedups in percent, positive = Nest or
// the named configuration improves on CFS-schedutil), so `go test
// -bench=.` doubles as a quick reproduction of the evaluation's shape.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScale keeps each iteration around a second of wall time.
const benchScale = 0.02

func runCell(b *testing.B, mach, sched, gov, wl string, seed uint64) *metrics.Result {
	return runCellScale(b, mach, sched, gov, wl, seed, benchScale)
}

func runCellScale(b *testing.B, mach, sched, gov, wl string, seed uint64, scale float64) *metrics.Result {
	b.Helper()
	res, err := experiments.Run(experiments.RunSpec{
		Machine: mach, Scheduler: sched, Governor: gov,
		Workload: wl, Scale: scale, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// speedupMetric runs CFS-schedutil vs one configuration and returns the
// paper-style speedup in percent.
func speedupMetric(b *testing.B, mach, sched, gov, wl string, seed uint64) float64 {
	base := runCell(b, mach, "cfs", "schedutil", wl, seed)
	other := runCell(b, mach, sched, gov, wl, seed)
	return 100 * metrics.Speedup(base.Runtime.Seconds(), other.Runtime.Seconds())
}

// gridSpecs builds a small Figure-5-style grid: both schedulers over
// the first four configure apps on the 5218. Eight independent cells —
// enough for the pool to spread across cores without making a single
// serial iteration slow.
func gridSpecs(seed uint64) []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, sched := range []string{"cfs", "nest"} {
		for _, app := range workload.ConfigureNames()[:4] {
			specs = append(specs, experiments.RunSpec{
				Machine: "5218", Scheduler: sched, Governor: "schedutil",
				Workload: "configure/" + app, Scale: benchScale, Seed: seed,
			})
		}
	}
	return specs
}

func benchGrid(b *testing.B, workers int) {
	b.Helper()
	cells := 0
	for i := 0; i < b.N; i++ {
		specs := gridSpecs(uint64(i + 1))
		if _, err := experiments.RunGrid(specs, experiments.PoolOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
		cells += len(specs)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkGridSerial runs the grid on one worker; the baseline for the
// pool's scaling. Compare cells/s against BenchmarkGridParallel.
func BenchmarkGridSerial(b *testing.B) { benchGrid(b, 1) }

// BenchmarkGridParallel runs the same grid across GOMAXPROCS workers.
// Results are byte-identical to the serial run (see TestParallelMatchesSerial);
// only the wall time differs.
func BenchmarkGridParallel(b *testing.B) { benchGrid(b, runtime.GOMAXPROCS(0)) }

// BenchmarkTable2 exercises the machine presets (Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range machine.PaperMachines() {
			if spec.Topo.NumCores() == 0 {
				b.Fatal("empty preset")
			}
		}
	}
	b.ReportMetric(float64(len(machine.PaperMachines())), "machines")
}

// BenchmarkTable3 exercises the turbo ladders (Table 3).
func BenchmarkTable3(b *testing.B) {
	specs := machine.PaperMachines()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			for n := 1; n <= spec.Topo.PhysPerSocket(); n++ {
				_ = spec.TurboLimit(n)
			}
		}
	}
	b.ReportMetric(specs[2].TurboLimit(1).GHz(), "5218_1core_GHz")
}

// BenchmarkFig2 traces LLVM configure under CFS and Nest (Figure 2) and
// reports the core-footprint ratio (CFS cores used / Nest cores used).
func BenchmarkFig2(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cores := map[string]int{}
		for _, sched := range []string{"cfs", "nest"} {
			tr := obs.NewTrace(0, 300*sim.Millisecond)
			_, err := experiments.Run(experiments.RunSpec{
				Machine: "5218", Scheduler: sched, Governor: "schedutil",
				Workload: "configure/llvm_ninja", Scale: 0.1, Seed: uint64(i + 1),
				Obs: obs.New(tr), SampleEvery: sim.Tick,
			})
			if err != nil {
				b.Fatal(err)
			}
			cores[sched] = len(tr.CoresUsed())
		}
		if cores["nest"] > 0 {
			ratio = float64(cores["cfs"]) / float64(cores["nest"])
		}
	}
	b.ReportMetric(ratio, "cfs/nest_cores")
}

// BenchmarkFig3 reports CFS's configure underload (Figure 3).
func BenchmarkFig3(b *testing.B) {
	var u float64
	for i := 0; i < b.N; i++ {
		res := runCell(b, "5218", "cfs", "schedutil", "configure/llvm_ninja", uint64(i+1))
		u = res.UnderloadAvg
	}
	b.ReportMetric(u, "cfs_underload")
}

// BenchmarkFig4 reports the CFS-vs-Nest underload gap across the
// configure suite (Figure 4).
func BenchmarkFig4(b *testing.B) {
	var cfsU, nestU float64
	for i := 0; i < b.N; i++ {
		cfsU, nestU = 0, 0
		for _, app := range workload.ConfigureNames() {
			wl := "configure/" + app
			cfsU += runCell(b, "5218", "cfs", "schedutil", wl, uint64(i+1)).UnderloadAvg
			nestU += runCell(b, "5218", "nest", "schedutil", wl, uint64(i+1)).UnderloadAvg
		}
	}
	b.ReportMetric(cfsU/11, "cfs_underload")
	b.ReportMetric(nestU/11, "nest_underload")
}

// BenchmarkFig5 reports the mean Nest-schedutil configure speedup
// (Figure 5).
func BenchmarkFig5(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		sum = 0
		for _, app := range workload.ConfigureNames() {
			sum += speedupMetric(b, "5218", "nest", "schedutil", "configure/"+app, uint64(i+1))
		}
	}
	b.ReportMetric(sum/11, "nest_speedup_%")
}

// BenchmarkFig6 reports how much more top-turbo time Nest gets on
// configure (Figure 6).
func BenchmarkFig6(b *testing.B) {
	top := func(r *metrics.Result) float64 {
		n := len(r.FreqHist.Weight)
		return r.FreqHist.Share(n-1) + r.FreqHist.Share(n-2)
	}
	var cfsT, nestT float64
	for i := 0; i < b.N; i++ {
		cfsT = top(runCell(b, "5218", "cfs", "schedutil", "configure/llvm_ninja", uint64(i+1)))
		nestT = top(runCell(b, "5218", "nest", "schedutil", "configure/llvm_ninja", uint64(i+1)))
	}
	b.ReportMetric(100*cfsT, "cfs_top_turbo_%")
	b.ReportMetric(100*nestT, "nest_top_turbo_%")
}

// BenchmarkFig7 reports Nest's configure energy savings (Figure 7).
func BenchmarkFig7(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		base := runCell(b, "5218", "cfs", "schedutil", "configure/llvm_ninja", uint64(i+1))
		nest := runCell(b, "5218", "nest", "schedutil", "configure/llvm_ninja", uint64(i+1))
		savings = 100 * metrics.Speedup(base.EnergyJ, nest.EnergyJ)
	}
	b.ReportMetric(savings, "energy_savings_%")
}

// BenchmarkFig8 reports the h2 core-footprint ratio on the 4-socket 6130
// (Figure 8).
func BenchmarkFig8(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cores := map[string]int{}
		for _, sched := range []string{"cfs", "nest"} {
			tr := obs.NewTrace(0, sim.Second)
			_, err := experiments.Run(experiments.RunSpec{
				Machine: "6130-4", Scheduler: sched, Governor: "schedutil",
				Workload: "dacapo/h2", Scale: benchScale, Seed: uint64(i + 1),
				Obs: obs.New(tr), SampleEvery: sim.Tick,
			})
			if err != nil {
				b.Fatal(err)
			}
			cores[sched] = len(tr.CoresUsed())
		}
		if cores["nest"] > 0 {
			ratio = float64(cores["cfs"]) / float64(cores["nest"])
		}
	}
	b.ReportMetric(ratio, "cfs/nest_cores")
}

// BenchmarkFig9 reports CFS h2 run-to-run spread (max/min over seeds),
// the variability behind Figure 9's slow runs.
func BenchmarkFig9(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		lo, hi := 1e18, 0.0
		for s := uint64(1); s <= 4; s++ {
			r := runCell(b, "6130-4", "cfs", "schedutil", "dacapo/h2", s)
			t := r.Runtime.Seconds()
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
		spread = hi / lo
	}
	b.ReportMetric(spread, "max/min_runtime")
}

// BenchmarkFig10 reports Nest's speedup on the three DaCapo apps the
// paper highlights (Figure 10).
func BenchmarkFig10(b *testing.B) {
	var sum float64
	apps := []string{"dacapo/h2", "dacapo/tradebeans", "dacapo/graphchi-eval"}
	for i := 0; i < b.N; i++ {
		sum = 0
		for _, wl := range apps {
			sum += speedupMetric(b, "6130-4", "nest", "schedutil", wl, uint64(i+1))
		}
	}
	b.ReportMetric(sum/float64(len(apps)), "nest_speedup_%")
}

// BenchmarkFig11 reports the h2 top-turbo-time gap (Figure 11).
func BenchmarkFig11(b *testing.B) {
	top := func(r *metrics.Result) float64 {
		n := len(r.FreqHist.Weight)
		return r.FreqHist.Share(n-1) + r.FreqHist.Share(n-2)
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		c := top(runCell(b, "6130-4", "cfs", "schedutil", "dacapo/h2", uint64(i+1)))
		n := top(runCell(b, "6130-4", "nest", "schedutil", "dacapo/h2", uint64(i+1)))
		gap = 100 * (n - c)
	}
	b.ReportMetric(gap, "top_turbo_gap_pp")
}

// BenchmarkFig12 reports the worst-case |Nest speedup| across NAS
// kernels on the 5218 — the "does not get in the way" number (Figure 12).
func BenchmarkFig12(b *testing.B) {
	kernels := []string{"nas/cg.C", "nas/lu.C", "nas/mg.C"}
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, wl := range kernels {
			// NAS needs enough barrier iterations to reach steady state.
			base := runCellScale(b, "5218", "cfs", "schedutil", wl, uint64(i+1), 0.06)
			nest := runCellScale(b, "5218", "nest", "schedutil", wl, uint64(i+1), 0.06)
			s := 100 * metrics.Speedup(base.Runtime.Seconds(), nest.Runtime.Seconds())
			if s < 0 {
				s = -s
			}
			if s > worst {
				worst = s
			}
		}
	}
	b.ReportMetric(worst, "max_abs_delta_%")
}

// BenchmarkFig13 reports Nest's speedup on the zstd worker-pool test
// (Figure 13's headline case).
func BenchmarkFig13(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s = speedupMetric(b, "6130-2", "nest", "schedutil", "phoronix/zstd-compression-7", uint64(i+1))
	}
	b.ReportMetric(s, "zstd_nest_speedup_%")
}

// BenchmarkTable4 buckets a sample of the Phoronix population (Table 4).
func BenchmarkTable4(b *testing.B) {
	tests := workload.PhoronixAll()
	var fast, slow, same int
	for i := 0; i < b.N; i++ {
		fast, slow, same = 0, 0, 0
		for j := 0; j < len(tests); j += 10 { // sample 1 in 10
			s := speedupMetric(b, "6130-2", "nest", "schedutil", tests[j], uint64(i+1))
			switch {
			case s > 5:
				fast++
			case s < -5:
				slow++
			default:
				same++
			}
		}
	}
	b.ReportMetric(float64(fast), "faster>5%")
	b.ReportMetric(float64(same), "same")
	b.ReportMetric(float64(slow), "slower>5%")
}

// BenchmarkTable5 exercises the test key.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range workload.PhoronixNamed() {
			if workload.PhoronixDescription(n) == "" {
				b.Fatal("missing description")
			}
		}
	}
	b.ReportMetric(float64(len(workload.PhoronixNamed())), "tests")
}

// BenchmarkAblationConfigure reports the reserve nest's contribution on
// configure (§5.2: the only feature whose removal changes the result).
func BenchmarkAblationConfigure(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		full := runCell(b, "5218", "nest", "schedutil", "configure/llvm_ninja", uint64(i+1))
		nores := runCell(b, "5218", "nest:noreserve", "schedutil", "configure/llvm_ninja", uint64(i+1))
		delta = 100 * metrics.Speedup(full.Runtime.Seconds(), nores.Runtime.Seconds())
	}
	b.ReportMetric(delta, "noreserve_vs_full_%")
}

// BenchmarkAblationDacapo reports spinning's contribution on h2 (§5.3:
// the feature with the greatest impact).
func BenchmarkAblationDacapo(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		full := runCell(b, "6130-2", "nest", "schedutil", "dacapo/h2", uint64(i+1))
		nospin := runCell(b, "6130-2", "nest:nospin", "schedutil", "dacapo/h2", uint64(i+1))
		delta = 100 * metrics.Speedup(full.Runtime.Seconds(), nospin.Runtime.Seconds())
	}
	b.ReportMetric(delta, "nospin_vs_full_%")
}

// BenchmarkAblationNAS reports the recently-used-core favouring's
// contribution on MG (§5.4).
func BenchmarkAblationNAS(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		full := runCell(b, "5218", "nest", "schedutil", "nas/mg.C", uint64(i+1))
		noatt := runCell(b, "5218", "nest:noattach", "schedutil", "nas/mg.C", uint64(i+1))
		delta = 100 * metrics.Speedup(full.Runtime.Seconds(), noatt.Runtime.Seconds())
	}
	b.ReportMetric(delta, "noattach_vs_full_%")
}

// BenchmarkHackbench reports Nest's hackbench delta (§5.6: negative).
func BenchmarkHackbench(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s = speedupMetric(b, "5218", "nest", "schedutil", "micro/hackbench", uint64(i+1))
	}
	b.ReportMetric(s, "nest_speedup_%")
}

// BenchmarkSchbench reports the p99.9 wakeup-latency ratio (§5.6).
func BenchmarkSchbench(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c := runCell(b, "5218", "cfs", "schedutil", "micro/schbench-m8-w16", uint64(i+1))
		n := runCell(b, "5218", "nest", "schedutil", "micro/schbench-m8-w16", uint64(i+1))
		cp := float64(c.WakeLatency.Percentile(99.9))
		np := float64(n.WakeLatency.Percentile(99.9))
		if cp > 0 {
			ratio = np / cp
		}
	}
	b.ReportMetric(ratio, "nest/cfs_p999")
}

// BenchmarkServer reports the leveldb gain (§5.6: Nest +25% on the real
// machine).
func BenchmarkServer(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		base := runCellScale(b, "6130-2", "cfs", "schedutil", "server/leveldb", uint64(i+1), 0.1)
		nest := runCellScale(b, "6130-2", "nest", "schedutil", "server/leveldb", uint64(i+1), 0.1)
		s = 100 * metrics.Speedup(base.Runtime.Seconds(), nest.Runtime.Seconds())
	}
	b.ReportMetric(s, "leveldb_nest_%")
}

// benchServe runs one serving cell per iteration on the 2-socket 6130
// under Nest and reports the host cost per simulated second, as the
// internal/cpu runtime benchmarks do.
func benchServe(b *testing.B, wl string, scale float64) {
	b.ReportAllocs()
	var simNS float64
	for i := 0; i < b.N; i++ {
		res := runCellScale(b, "6130-2", "nest", "schedutil", wl, uint64(i+1), scale)
		simNS += float64(res.Runtime)
	}
	if simNS > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(simNS/float64(sim.Second)), "ns/sim_s")
	}
}

// BenchmarkServeOverloadCodel measures the open-loop overload path: MMPP
// arrivals at 1.5x capacity with CoDel shedding.
func BenchmarkServeOverloadCodel(b *testing.B) {
	benchServe(b, "overload/mix-1.5-codel", 1)
}

// BenchmarkServeFanoutHedged measures the fan-out path: 16-wide requests
// at 1.2x load with p95 hedging, whose hedge delay is a percentile of the
// completed-subtask latencies.
func BenchmarkServeFanoutHedged(b *testing.B) {
	benchServe(b, "fanout/w16-1.2-p95", 0.1)
}

// BenchmarkMultiApp reports zstd's speedup in the concurrent-application
// scenario (§5.6).
func BenchmarkMultiApp(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		base := runCell(b, "6130-2", "cfs", "schedutil", "multi/zstd+libgav1", uint64(i+1))
		nest := runCell(b, "6130-2", "nest", "schedutil", "multi/zstd+libgav1", uint64(i+1))
		s = 100 * metrics.Speedup(base.Custom["zstd_s"], nest.Custom["zstd_s"])
	}
	b.ReportMetric(s, "zstd_nest_%")
}

// BenchmarkMonoSocket reports the configure speedup on the single-socket
// Ryzen 4650G (§5.6: the largest mono-socket gains).
func BenchmarkMonoSocket(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s = speedupMetric(b, "4650g", "nest", "schedutil", "configure/llvm_ninja", uint64(i+1))
	}
	b.ReportMetric(s, "nest_speedup_%")
}
