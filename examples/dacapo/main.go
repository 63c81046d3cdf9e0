// The §5.3 case study: the h2 database benchmark on the 4-socket Xeon
// Gold 6130 — Figure 8's traces (typical runs) plus the seed scan behind
// Figure 9's slow multi-socket CFS run.
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

func trace(sched string, seed uint64) (*obs.Trace, *metrics.Result, error) {
	tr := obs.NewTrace(0, sim.Second)
	res, err := experiments.Run(experiments.RunSpec{
		Machine: "6130-4", Scheduler: sched, Governor: "schedutil",
		Workload: "dacapo/h2", Scale: 0.04, Seed: seed,
		Obs: obs.New(tr), SampleEvery: sim.Tick,
	})
	return tr, res, err
}

func main() {
	spec := machine.IntelXeon6130(4)
	edges := metrics.EdgesFor(spec)
	topo := spec.Topo

	for _, sched := range []string{"cfs", "nest"} {
		tr, res, err := trace(sched, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		socks := map[int]bool{}
		for _, c := range tr.CoresUsed() {
			socks[topo.Socket(c)] = true
		}
		fmt.Printf("=== h2 under %s-schedutil (first 1s) ===\n", sched)
		textplot.CoreTrace(os.Stdout, tr, edges)
		fmt.Printf("cores used %d on %d socket(s); full run %.3fs\n\n",
			len(tr.CoresUsed()), len(socks), res.Runtime.Seconds())
	}

	// Figure 9: scan seeds for the slowest CFS run.
	fmt.Println("=== CFS run-to-run variation (the paper's slow multi-socket runs) ===")
	worst, worstT := uint64(1), 0.0
	for s := uint64(1); s <= 8; s++ {
		res, err := experiments.Run(experiments.RunSpec{
			Machine: "6130-4", Scheduler: "cfs", Governor: "schedutil",
			Workload: "dacapo/h2", Scale: 0.04, Seed: s,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  seed %d: %.3fs\n", s, res.Runtime.Seconds())
		if res.Runtime.Seconds() > worstT {
			worst, worstT = s, res.Runtime.Seconds()
		}
	}
	tr, res, err := trace("cfs", worst)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	socks := map[int]bool{}
	for _, c := range tr.CoresUsed() {
		socks[topo.Socket(c)] = true
	}
	fmt.Printf("\nslowest run (seed %d, %.3fs) touched %d cores on %d socket(s)\n",
		worst, res.Runtime.Seconds(), len(tr.CoresUsed()), len(socks))
}
