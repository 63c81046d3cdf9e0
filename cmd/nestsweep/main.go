// Command nestsweep sweeps one Nest parameter across a list of values on
// one workload, the tool behind the §5.2/§5.3 parameter studies
// ("multiplying each of the parameters shown in Table 1 by 0.5, 2 or
// 10").
//
// Usage:
//
//	nestsweep -param smax -values 0,1,2,4,8,20 -workload dacapo/h2 -machine 6130-2
//	nestsweep -param rmax -values 0,2,5,10,50 -workload configure/llvm_ninja
//
// Values are in ticks for premove/smax and counts for rmax/rimpatient;
// 0 means the feature is disabled outright.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// usage reports a bad flag value and exits 2, before any run.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "nestsweep:", err)
	os.Exit(2)
}

func main() {
	var (
		param       = flag.String("param", "smax", "parameter: premove, smax, rmax, rimpatient")
		values      = flag.String("values", "0,1,2,4,20", "comma-separated values (0 disables the feature)")
		wl          = flag.String("workload", "dacapo/h2", "workload")
		machineName = flag.String("machine", "6130-2", "machine preset")
		gov         = flag.String("gov", "schedutil", "governor")
		runs        = flag.Int("runs", 3, "repetitions")
		scale       = flag.Float64("scale", experiments.DefaultScale, "workload scale")
		seed        = flag.Uint64("seed", 1, "base seed")
	)
	flag.Parse()

	// Every input is checked before the first run: a typo must not cost
	// the default-Nest baseline's runtime first.
	if _, err := machine.Preset(*machineName); err != nil {
		usage(err)
	}
	if _, err := workload.ByName(*wl); err != nil {
		usage(err)
	}
	if _, err := governor.ByName(*gov); err != nil {
		usage(err)
	}
	type point struct{ label, sched string }
	var points []point
	for _, vs := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(vs))
		if err != nil {
			usage(fmt.Errorf("bad value %q", vs))
		}
		sched, err := experiments.NestParamScheduler(*param, v)
		if err != nil {
			usage(err)
		}
		label := strconv.Itoa(v)
		if v == 0 {
			label = "off"
		}
		points = append(points, point{label, sched})
	}

	measure := func(sched string) (float64, float64, error) {
		rs, err := experiments.RunRepeats(experiments.RunSpec{
			Machine: *machineName, Scheduler: sched, Governor: *gov,
			Workload: *wl, Scale: *scale, Seed: *seed,
		}, *runs)
		if err != nil {
			return 0, 0, err
		}
		ts := metrics.Runtimes(rs)
		return metrics.Mean(ts), metrics.Mean(metrics.Energies(rs)), nil
	}

	baseT, baseE, err := measure("nest")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nestsweep:", err)
		os.Exit(1)
	}
	fmt.Printf("sweep of %s on %s (%s, %s-governor, %d runs); default Nest: %.4fs %.1fJ\n",
		*param, *wl, *machineName, *gov, *runs, baseT, baseE)
	fmt.Printf("%-12s %10s %10s %10s %10s\n", *param, "runtime", "vs default", "energy", "vs default")

	for _, pt := range points {
		tm, en, err := measure(pt.sched)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestsweep:", err)
			os.Exit(1)
		}
		fmt.Printf("%-12s %9.4fs %+9.1f%% %9.1fJ %+9.1f%%\n",
			pt.label, tm, 100*metrics.Speedup(baseT, tm), en, 100*metrics.Speedup(baseE, en))
	}
}
