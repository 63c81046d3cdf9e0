package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestSteadyStateAllocGrowth holds the long-running workloads' action
// streams, request pools and wait queues to "allocates nothing per
// segment", and fork storms to a few allocations per forked task: each
// cell runs at scale s and 2s, and the extra heap allocations per extra
// simulated second must stay under the case's bound. Set-up cost cancels
// out of the difference, so the figure is the steady-state rate.
//
// Measured growth (allocations per extra simulated second at the scales
// below, seed 7, cfs / nest; Go 1.24, amd64). "Boxed" is a fresh boxed
// Compute, Sleep or Fork per action, records pooled one by one, and
// channel and pending lists popped with x = x[1:], which reallocate
// after a drain; "owned" is owned actions and fork records, slab pools
// and proc.FIFO queues:
//
//	case                    boxed             owned
//	overload/mix-1.5-codel  59.8k / 58.8k     398 / 426
//	fanout/w16-1.2-p95      219.7k / 215.8k   421 / 191
//	dacapo/h2               6294 / 6377       0 / 0
//	nas/mg.C                6758 / 6758       0 / 0
//	server/leveldb          609 / 709         2 / 0
//	micro/hackbench         420k / 408k       247 / 1215
//	configure/llvm_ninja    3594 / 5398       1220 / 2198
//
// Each bound is at most a tenth of the boxed figure, so a behaviour
// that boxes a fresh Compute or Sleep per segment, a pool that allocates
// one record at a time, or a channel whose wait lists reallocate fails
// here again. A forked command still costs its task, its record and its
// behaviour, so configure's bound only sits below the boxed figure of
// both schedulers: a shell that boxes its forks again fails. Under
// -race the figures move by a few tens.
func TestSteadyStateAllocGrowth(t *testing.T) {
	cases := []struct {
		machine, workload string
		scale             float64
		bound             float64
	}{
		{"6130-2", "overload/mix-1.5-codel", 1, 5_800},
		{"6130-2", "fanout/w16-1.2-p95", 0.05, 21_500},
		{"6130-4", "dacapo/h2", 0.1, 620},
		{"5218", "nas/mg.C", 0.2, 670},
		{"6130-2", "server/leveldb", 0.1, 57},
		{"5218", "micro/hackbench", 0.01, 4_000},
		{"5218", "configure/llvm_ninja", 0.25, 3_000},
	}
	for _, tc := range cases {
		for _, sched := range []string{"cfs", "nest"} {
			t.Run(tc.workload+"/"+sched, func(t *testing.T) {
				a1, s1 := allocsAndSimSeconds(t, tc.machine, sched, tc.workload, tc.scale)
				a2, s2 := allocsAndSimSeconds(t, tc.machine, sched, tc.workload, 2*tc.scale)
				if s2 <= s1 {
					t.Fatalf("doubling the scale did not lengthen the run: %.3f -> %.3f sim s", s1, s2)
				}
				growth := (a2 - a1) / (s2 - s1)
				t.Logf("%.0f allocs at %.3f sim s, %.0f at %.3f: %.0f per extra sim s (bound %.0f)",
					a1, s1, a2, s2, growth, tc.bound)
				if growth > tc.bound {
					t.Errorf("%.0f allocations per extra simulated second, bound %.0f", growth, tc.bound)
				}
			})
		}
	}
}

// allocsAndSimSeconds runs one cell and returns the heap allocations it
// made and its simulated length in seconds.
func allocsAndSimSeconds(t *testing.T, mach, sched, wl string, scale float64) (float64, float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := experiments.Run(experiments.RunSpec{
		Machine: mach, Scheduler: sched, Governor: "schedutil",
		Workload: wl, Scale: scale, Seed: 7,
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs - before.Mallocs), float64(res.Runtime) / float64(sim.Second)
}
