package experiments

import (
	"errors"
	"fmt"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// overloadConfigs compares the schedulers under identical offered load:
// the paper's two schedutil contenders plus the Smove baseline, since
// placement quality under a saturated handler pool is exactly where the
// three diverge.
var overloadConfigs = []config{cfgCFSSched, cfgNestSched, cfgSmoveSched}

// overload runs the overload-control grid: arrival factor × admission
// policy × scheduler on the 2-socket 6130, open-loop MMPP arrivals with
// deadlines and retries. The interesting outputs are goodput holding
// near capacity under the shedding policies while the no-admission
// column collapses past saturation, and retry amplification staying
// bounded.
func overload(opt Options) (*Report, error) {
	opt.fill()
	rep := &Report{ID: "overload", Title: "Overload control: admission, shedding and graceful degradation under open-loop load"}
	machines := machinesOrDefault(opt, []string{"6130-2"})
	// Per-cell hubs (cellHub) and checkers keep the grid parallel-safe,
	// as in the resilience grid, unless opt.Obs asks for events.
	type ovlCell struct {
		factor float64
		policy string
		cfg    config
	}
	var cellsIn []ovlCell
	var specs []RunSpec
	for _, mach := range machines {
		for _, f := range workload.OverloadFactors {
			for _, pol := range workload.OverloadPolicies {
				for _, cfg := range overloadConfigs {
					rs := RunSpec{
						Machine:   mach,
						Scheduler: cfg.sched,
						Governor:  cfg.gov,
						Workload:  workload.OverloadMixName(f, pol),
						Scale:     opt.Scale,
						Seed:      opt.Seed,
						Obs:       cellHub(opt),
						Check:     invariant.New(),
					}
					cellsIn = append(cellsIn, ovlCell{factor: f, policy: pol, cfg: cfg})
					specs = append(specs, RepeatSpecs(rs, opt.Runs)...)
				}
			}
		}
	}
	all, err := RunGrid(specs, opt.pool())
	if err != nil {
		var ce *CellError
		if errors.As(err, &ce) {
			c := cellsIn[ce.Index/opt.Runs]
			return nil, fmt.Errorf("overload %gx/%s/%s: %w", c.factor, c.policy, c.cfg, ce.Err)
		}
		return nil, err
	}
	i := 0
	for _, mach := range machines {
		sec := Section{
			Heading: mach,
			Columns: []string{"load", "policy", "config", "goodput (req/s)", "shed", "timeout", "retry amp", "p99 (us)", "slo", "violations"},
		}
		for _, f := range workload.OverloadFactors {
			for _, pol := range workload.OverloadPolicies {
				for _, cfg := range overloadConfigs {
					results := all[i : i+opt.Runs]
					i += opt.Runs
					var goodputs []float64
					for _, r := range results {
						goodputs = append(goodputs, r.Custom["ovl_goodput"])
					}
					r0 := results[0]
					offered := r0.Custom["ovl_offered"]
					frac := func(k string) string {
						if offered == 0 {
							return "—"
						}
						return fmt.Sprintf("%.1f%%", 100*r0.Custom[k]/offered)
					}
					sec.Rows = append(sec.Rows, []string{
						fmt.Sprintf("%.1fx", f), pol, cfg.String(),
						fmt.Sprintf("%.0f ±%.0f%%", metrics.Mean(goodputs), cellStd(goodputs)),
						frac("ovl_shed"),
						frac("ovl_timeout"),
						fmt.Sprintf("%.2f", r0.Custom["ovl_amp"]),
						fmt.Sprintf("%.0f", r0.Custom["req_p99_us"]),
						fmt.Sprintf("%.1f%%", r0.Custom["slo_pct"]),
						fmt.Sprintf("%d", int64(r0.Custom["invariant_violations"])),
					})
				}
			}
		}
		sec.Notes = append(sec.Notes,
			"goodput counts only requests completed within their deadline; shed and timeout are fractions of offered load (base arrivals plus retries)",
			"retry amp is offered/(offered-retries): how much client retries inflate the load the server actually sees",
			"the no-admission rows past 1.0x load show congestive collapse: the queue holds every request just long enough to miss its deadline",
		)
		rep.Sections = append(rep.Sections, sec)
	}
	return rep, nil
}

func init() {
	registerExperiment(&Experiment{
		ID:    "overload",
		Title: "Admission control and load shedding: goodput under 1x-2x offered load, CFS vs Nest vs Smove",
		Run:   overload,
	})
}
