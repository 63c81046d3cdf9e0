// Command perfbench is the repository's benchmark. One invocation runs
// one workload — a fixed list of simulation cells, each started after
// the previous one finished — for a given number of host seconds, and
// prints one JSON object as its last line: host-side costs with tracing
// off (--trace 0), or per-layer attribution from a traced run
// (--trace 1). README.md in this directory documents the workloads, the
// metrics and which layer each metric should move.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload fork-wake --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	// scale multiplies every cell's workload scale; the command always
	// uses 1, the self-tests shrink the cells.
	scale float64
}

func main() {
	o := options{scale: 1}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every cell's RunSpec.Seed derives from it")
	flag.IntVar(&o.seconds, "seconds", 10, "host seconds to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// summary is the last line of the output: the benchmark's result.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation and writes its report to w.
func run(o options, w io.Writer) error {
	wl, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 0 {
		return errors.New("--seconds must not be negative")
	}
	env, err := stampEnv(wl.workers())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d %s\n",
		wl.name, o.seed, o.seconds, o.trace, env)

	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	b := newBench(wl, o, tmp)
	defs := endToEnd
	var values map[string]float64
	if o.trace == 0 {
		values = b.endToEnd(w)
	} else {
		defs = perLayer
		if values, err = b.traced(); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "sim_digest %s %s\n", wl.name, b.digest())
	for _, f := range b.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	fmt.Fprintf(w, "cell_fail_ratio %g ratio (%d of %d cells failed)\n",
		ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	s := summary{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(w, "%s %g %s\n", d.name, v, d.unit)
		s.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
