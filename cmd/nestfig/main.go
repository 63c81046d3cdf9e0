// Command nestfig renders paper-style figures as SVG files.
//
//	nestfig -kind trace -workload configure/llvm_ninja -machine 5218 -sched cfs -out cfs.svg
//	nestfig -kind underload -workload configure/llvm_ninja -out underload.svg
//	nestfig -kind timeseries -workload dacapo/h2 -machine 6130-4 -sched nest -out h2.svg
//	nestfig -kind speedup -suite configure -machine 5218 -out fig5.svg
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/svgplot"
	"repro/internal/workload"
)

func main() {
	var (
		kind        = flag.String("kind", "trace", "figure kind: trace, underload, timeseries, speedup")
		wl          = flag.String("workload", "configure/llvm_ninja", "workload (trace/underload/timeseries)")
		suite       = flag.String("suite", "configure", "suite for -kind speedup: configure, dacapo, nas")
		machineName = flag.String("machine", "5218", "machine preset")
		sched       = flag.String("sched", "cfs", "scheduler (trace/underload/timeseries)")
		gov         = flag.String("gov", "schedutil", "governor")
		scale       = flag.Float64("scale", 0.1, "workload scale")
		windowMS    = flag.Int("window", 300, "trace window in milliseconds")
		seed        = flag.Uint64("seed", 1, "seed")
		out         = flag.String("out", "figure.svg", "output SVG path")
	)
	flag.Parse()

	// Validate everything before creating -out, so a usage error leaves
	// no empty file behind.
	spec, err := machine.Preset(*machineName)
	if err != nil {
		usage(err)
	}
	if err := experiments.CheckScale(*scale); err != nil {
		usage(err)
	}
	rs := experiments.RunSpec{
		Machine: *machineName, Scheduler: *sched, Governor: *gov,
		Workload: *wl, Scale: *scale, Seed: *seed,
	}
	var suiteWorkloads []string
	switch *kind {
	case "trace", "underload", "timeseries":
		if err := rs.Validate(); err != nil {
			usage(err)
		}
	case "speedup":
		for _, w := range workload.Suite(*suite) {
			suiteWorkloads = append(suiteWorkloads, w.Name)
		}
		if len(suiteWorkloads) == 0 {
			usage(fmt.Errorf("unknown suite %q", *suite))
		}
	default:
		usage(fmt.Errorf("unknown -kind %q", *kind))
	}

	var b bytes.Buffer
	title := fmt.Sprintf("%s, %s-%s on %s", *wl, *sched, *gov, spec.Topo.Name())
	switch *kind {
	case "trace", "underload":
		tr := obs.NewTrace(0, sim.Time(*windowMS)*sim.Millisecond)
		rs.Obs, rs.SampleEvery = obs.New(tr), sim.Tick
		if _, err := experiments.Run(rs); err != nil {
			fail(err)
		}
		if *kind == "trace" {
			svgplot.Heatmap(&b, title, tr, metrics.EdgesFor(spec))
		} else {
			svgplot.UnderloadSeries(&b, "underload: "+title, tr.UnderloadSeries)
		}

	case "timeseries":
		var buf obs.SeriesBuffer
		rs.Obs, rs.SampleEvery = obs.New(&buf), sim.Tick
		if _, err := experiments.Run(rs); err != nil {
			fail(err)
		}
		svgplot.TimeSeries(&b, title, buf.Cores, float64(spec.MaxTurbo()))

	case "speedup":
		seriesNames := []string{"CFS-perf", "Nest-sched", "Nest-perf"}
		configs := [][2]string{{"cfs", "performance"}, {"nest", "schedutil"}, {"nest", "performance"}}
		var groups []svgplot.BarGroup
		for _, w := range suiteWorkloads {
			base, err := mean(*machineName, "cfs", "schedutil", w, *scale, *seed)
			if err != nil {
				fail(err)
			}
			g := svgplot.BarGroup{Label: shortName(w)}
			for _, c := range configs {
				v, err := mean(*machineName, c[0], c[1], w, *scale, *seed)
				if err != nil {
					fail(err)
				}
				g.Values = append(g.Values, 100*metrics.Speedup(base, v))
			}
			groups = append(groups, g)
		}
		svgplot.Bars(&b, fmt.Sprintf("%s suite on %s: speedup vs CFS-schedutil (%%)", *suite, spec.Topo.Name()),
			seriesNames, groups)
	}

	// os.WriteFile reports a failed Close, where a full disk surfaces.
	if err := os.WriteFile(*out, b.Bytes(), 0o666); err != nil {
		fail(err)
	}
	fmt.Println("wrote", *out)
}

func mean(mach, sched, gov, wl string, scale float64, seed uint64) (float64, error) {
	rs, err := experiments.RunRepeats(experiments.RunSpec{
		Machine: mach, Scheduler: sched, Governor: gov,
		Workload: wl, Scale: scale, Seed: seed,
	}, 2)
	if err != nil {
		return 0, err
	}
	return metrics.Mean(metrics.Runtimes(rs)), nil
}

func shortName(wl string) string {
	if i := strings.IndexByte(wl, '/'); i >= 0 {
		return wl[i+1:]
	}
	return wl
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nestfig:", err)
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "nestfig:", err)
	os.Exit(2)
}
