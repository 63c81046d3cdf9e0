package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// group is one workload on one machine, run under several schedulers on
// a shared seed, so the pair rule compares schedulers on identical input.
// A group runs under several seeds (replicas): the simulated cost of a
// cell depends on its seed, and pooling several keeps a workload's
// figures close from one workload seed to the next.
type group struct {
	machine  string
	workload string
	scale    float64
	replicas int
	scheds   []string
	rule     pairRule
}

// pairRule is the paper's claim a group's nest/cfs pair must uphold.
type pairRule int

const (
	noRule      pairRule = iota
	nestFaster           // Nest finishes before CFS (configure, DaCapo h2)
	sameRuntime          // Nest within 1% of CFS (NAS: one task per core)
)

// workloadDef is one benchmark workload: a fixed cell list.
type workloadDef struct {
	name string
	// grid runs the cells through experiments.RunGrid with a journal and
	// a JSONL obs hub per cell; the other workloads run cells one after
	// another on the calling goroutine.
	grid   bool
	groups []group
}

var (
	allScheds = []string{"cfs", "nest", "smove"}
	cfsNest   = []string{"cfs", "nest"}
)

// workloads are the benchmark's fixed cell lists. Scales balance each
// list so that no single cell takes most of its wall time. README.md
// says why each workload exists and which layer it loads.
var workloads = []workloadDef{
	{name: "fork-wake", groups: []group{
		{"5218", "configure/llvm_ninja", 1, 6, allScheds, nestFaster},
		{"5218", "micro/hackbench", 0.01, 2, allScheds, noRule},
	}},
	{name: "warm-spin", groups: []group{
		{"6130-4", "dacapo/h2", 0.5, 3, cfsNest, nestFaster},
		{"5218", "nas/mg.C", 1, 3, cfsNest, sameRuntime},
	}},
	{name: "serve-fanout", groups: []group{
		{"6130-2", "overload/mix-1.5-codel", 1, 4, cfsNest, noRule},
		{"6130-2", "fanout/w16-1.2-p95", 0.1, 4, cfsNest, noRule},
	}},
	{name: "grid-observed", grid: true, groups: []group{
		{"5218", "configure/llvm_ninja", 0.25, 2, cfsNest, nestFaster},
		{"5218", "configure/gcc", 1, 2, cfsNest, nestFaster},
		{"5218", "configure/linux", 0.5, 2, cfsNest, nestFaster},
		{"5218", "configure/php", 0.2, 2, cfsNest, nestFaster},
	}},
}

// workers is how many cells the workload runs at once.
func (w workloadDef) workers() int {
	if w.grid {
		return gridWorkers
	}
	return 1
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// specs expands w into its cells: each group once per replica, under
// every one of its schedulers. The cells of one replica share a seed,
// derived from the workload seed and the replica's position. kinds maps
// each cell to its kind: its group and scheduler, whatever the seed.
func (w workloadDef) specs(seed uint64, scale float64) (specs []experiments.RunSpec, kinds []int) {
	rep, kind := 0, 0
	for _, g := range w.groups {
		for r := 0; r < g.replicas; r++ {
			rep++
			s := splitmix(seed ^ splitmix(uint64(rep)))
			for k, sched := range g.scheds {
				specs = append(specs, experiments.RunSpec{
					Machine: g.machine, Scheduler: sched, Governor: "schedutil",
					Workload: g.workload, Scale: g.scale * scale, Seed: s,
				})
				kinds = append(kinds, kind+k)
			}
		}
		kind += len(g.scheds)
	}
	return specs, kinds
}

// splitmix is the SplitMix64 finaliser: distinct inputs give
// well-spread, distinct seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// checkResult is the per-cell correctness gate: the run finished, and
// every request attempt and fan-out subtask ended in exactly one
// terminal outcome.
func checkResult(res *metrics.Result) error {
	c := res.Custom
	if c["truncated"] != 0 {
		return errors.New("run truncated")
	}
	if off, ok := c["ovl_offered"]; ok {
		if end := c["ovl_completed"] + c["ovl_timeout"] + c["ovl_shed"]; end != off {
			return fmt.Errorf("overload attempts: %g offered, %g terminal", off, end)
		}
	}
	if iss, ok := c["fan_issued"]; ok {
		if end := c["fan_done"] + c["fan_cancelled"] + c["fan_timeout"] + c["fan_shed"]; end != iss {
			return fmt.Errorf("fan-out subtasks: %g issued, %g terminal", iss, end)
		}
	}
	return nil
}

// checkPairs applies each group's rule to one pass's results and
// returns the failing cells (the nest cell of a violated pair) with the
// reason.
func (w workloadDef) checkPairs(res []*metrics.Result) map[int]string {
	var reps []group // one entry per replica, in cell order
	for _, g := range w.groups {
		for r := 0; r < g.replicas; r++ {
			reps = append(reps, g)
		}
	}
	out := map[int]string{}
	base := 0
	for _, g := range reps {
		c, n := -1, -1
		for k, s := range g.scheds {
			switch s {
			case "cfs":
				c = base + k
			case "nest":
				n = base + k
			}
		}
		base += len(g.scheds)
		if g.rule == noRule || c < 0 || n < 0 || res[c] == nil || res[n] == nil {
			continue
		}
		cr, nr := res[c].Runtime, res[n].Runtime
		switch g.rule {
		case nestFaster:
			if nr >= cr {
				out[n] = fmt.Sprintf("nest (%v) no faster than cfs (%v)", nr, cr)
			}
		case sameRuntime:
			if math.Abs(float64(nr-cr)) > 0.01*float64(cr) {
				out[n] = fmt.Sprintf("nest (%v) and cfs (%v) differ by more than 1%%", nr, cr)
			}
		}
	}
	return out
}
