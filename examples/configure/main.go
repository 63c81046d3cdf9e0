// The §5.2 case study: LLVM configuration on the 64-core Xeon Gold 5218.
// Prints the core-frequency traces of Figure 2, the underload series of
// Figure 3, and the speedup/energy summary of Figures 5-7 for this app.
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/textplot"
)

func main() {
	spec := machine.IntelXeon5218()
	edges := metrics.EdgesFor(spec)

	for _, sched := range []string{"cfs", "nest"} {
		tr := obs.NewTrace(0, 300*sim.Millisecond)
		res, err := experiments.Run(experiments.RunSpec{
			Machine: "5218", Scheduler: sched, Governor: "schedutil",
			Workload: "configure/llvm_ninja", Scale: 0.1, Seed: 1,
			Obs: obs.New(tr), SampleEvery: sim.Tick,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s-schedutil: first 0.3s of LLVM configure (Ninja) ===\n", sched)
		textplot.CoreTrace(os.Stdout, tr, edges)
		textplot.UnderloadSeries(os.Stdout, "underload per 4ms interval", tr.UnderloadSeries, 75)
		fmt.Printf("full run: %.3fs, %.1fJ, underload %.2f/interval\n\n",
			res.Runtime.Seconds(), res.EnergyJ, res.UnderloadAvg)
	}

	fmt.Println("=== speedups vs CFS-schedutil (3 runs) ===")
	base, err := experiments.RunRepeats(experiments.RunSpec{
		Machine: "5218", Scheduler: "cfs", Governor: "schedutil",
		Workload: "configure/llvm_ninja", Scale: 0.1, Seed: 1,
	}, 3)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	baseT := metrics.Mean(metrics.Runtimes(base))
	baseE := metrics.Mean(metrics.Energies(base))
	for _, cfg := range []struct{ s, g string }{
		{"cfs", "performance"}, {"nest", "schedutil"}, {"nest", "performance"}, {"smove", "schedutil"},
	} {
		rs, err := experiments.RunRepeats(experiments.RunSpec{
			Machine: "5218", Scheduler: cfg.s, Governor: cfg.g,
			Workload: "configure/llvm_ninja", Scale: 0.1, Seed: 1,
		}, 3)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %-18s speedup %+6.1f%%   energy %+6.1f%%\n",
			cfg.s+"-"+cfg.g,
			100*metrics.Speedup(baseT, metrics.Mean(metrics.Runtimes(rs))),
			100*metrics.Speedup(baseE, metrics.Mean(metrics.Energies(rs))))
	}
}
