package experiments

import (
	"errors"
	"fmt"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// fanoutConfigs mirrors the overload grid's scheduler panel: the two
// schedutil contenders plus Smove, because fan-out requests amplify
// placement decisions W-fold — one cold-core subtask placement drags
// the whole stage's completion.
var fanoutConfigs = []config{cfgCFSSched, cfgNestSched, cfgSmoveSched}

// fanout runs the fan-out topology grid: width × hedging policy × load
// factor × scheduler on the 2-socket 6130. Each admitted request spawns
// W parallel subtasks per stage with the parent deadline split across
// stages; hedged cells re-issue slow subtasks after the observed p95.
// The interesting outputs are the hedged columns buying back the
// straggler tail at moderate load while adding no offered load (base
// arrivals are scheduler- and hedge-invariant), and cancellation
// keeping subtask work bounded once requests are doomed.
func fanout(opt Options) (*Report, error) {
	opt.fill()
	rep := &Report{ID: "fanout", Title: "Fan-out requests: hedged subtasks, deadline propagation and cancellation under parallel stages"}
	machines := machinesOrDefault(opt, []string{"6130-2"})
	type fanCell struct {
		width  int
		factor float64
		hedge  string
		cfg    config
	}
	var cellsIn []fanCell
	var specs []RunSpec
	for _, mach := range machines {
		for _, w := range workload.FanoutWidths {
			for _, f := range workload.FanoutFactors {
				for _, h := range workload.FanoutHedges {
					for _, cfg := range fanoutConfigs {
						rs := RunSpec{
							Machine:   mach,
							Scheduler: cfg.sched,
							Governor:  cfg.gov,
							Workload:  workload.FanoutMixName(w, f, h),
							Scale:     opt.Scale,
							Seed:      opt.Seed,
							Obs:       cellHub(opt),
							Check:     invariant.New(),
						}
						cellsIn = append(cellsIn, fanCell{width: w, factor: f, hedge: h, cfg: cfg})
						specs = append(specs, RepeatSpecs(rs, opt.Runs)...)
					}
				}
			}
		}
	}
	all, err := RunGrid(specs, opt.pool())
	if err != nil {
		var ce *CellError
		if errors.As(err, &ce) {
			c := cellsIn[ce.Index/opt.Runs]
			return nil, fmt.Errorf("fanout w%d/%gx/%s/%s: %w", c.width, c.factor, c.hedge, c.cfg, ce.Err)
		}
		return nil, err
	}
	i := 0
	for _, mach := range machines {
		sec := Section{
			Heading: mach,
			Columns: []string{"width", "load", "hedge", "config", "goodput (req/s)", "p99 (us)", "hedges", "wins", "cancelled", "straggle (us)", "violations"},
		}
		for _, w := range workload.FanoutWidths {
			for _, f := range workload.FanoutFactors {
				for _, h := range workload.FanoutHedges {
					for _, cfg := range fanoutConfigs {
						results := all[i : i+opt.Runs]
						i += opt.Runs
						var goodputs []float64
						for _, r := range results {
							goodputs = append(goodputs, r.Custom["ovl_goodput"])
						}
						r0 := results[0]
						issued := r0.Custom["fan_issued"]
						cancelled := "—"
						if issued > 0 {
							cancelled = fmt.Sprintf("%.1f%%", 100*r0.Custom["fan_cancelled"]/issued)
						}
						sec.Rows = append(sec.Rows, []string{
							fmt.Sprintf("%d", w),
							fmt.Sprintf("%.1fx", f), h, cfg.String(),
							fmt.Sprintf("%.0f ±%.0f%%", metrics.Mean(goodputs), cellStd(goodputs)),
							fmt.Sprintf("%.0f", r0.Custom["req_p99_us"]),
							fmt.Sprintf("%d", int64(r0.Custom["fan_hedges"])),
							fmt.Sprintf("%d", int64(r0.Custom["fan_hedge_wins"])),
							cancelled,
							fmt.Sprintf("%.0f", r0.Custom["fan_straggle_us"]),
							fmt.Sprintf("%d", int64(r0.Custom["invariant_violations"])),
						})
					}
				}
			}
		}
		sec.Notes = append(sec.Notes,
			"each request fans into width parallel subtasks per stage (2 stages); the parent deadline is split evenly across the stages still to run",
			"hedge p95 re-issues a subtask once its attempt outlives the observed subtask p95; a win means the hedge finished before the primary",
			"cancelled is the fraction of subtask attempts cut short — losing hedges, siblings of satisfied quorum slots, and orphans of doomed parents",
			"straggle is the mean wait between a stage's median and last needed completion: the tail the hedged columns buy back",
		)
		rep.Sections = append(rep.Sections, sec)
	}
	return rep, nil
}

func init() {
	registerExperiment(&Experiment{
		ID:    "fanout",
		Title: "Fan-out topologies: hedging and cancellation vs straggler tail, CFS vs Nest vs Smove",
		Run:   fanout,
	})
}
