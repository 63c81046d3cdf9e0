package experiments

import (
	"errors"
	"fmt"

	"repro/internal/invariant"
	"repro/internal/metrics"
)

// resilienceFault names one fault plan of the resilience grid. Times are
// tuned for the default scale (a run of roughly a third of a second on
// the 5218): every plan lands mid-run, after the nest has formed and
// well before the workload drains.
type resilienceFault struct {
	name string
	plan string
}

var resilienceFaults = []resilienceFault{
	{"none", ""},
	// Permanent loss of core 2 — on every paper machine a core the nest
	// has claimed as primary by 50ms — plus its hyperthread sibling's
	// later loss, so evacuation and mask compaction both trigger.
	{"core-loss", "off:c2@50ms"},
	// A hotplug window: two cores bounce offline and back, forcing
	// evacuation on the way down and re-integration on the way up.
	{"hotplug-window", "off:c2@50ms+150ms,off:c3@80ms+150ms"},
	// Socket 0 thermally throttled to 1.8 GHz for most of the run; the
	// Table-3 turbo ladder is capped and grants must re-clamp.
	{"throttle", "throttle:s0@40ms+200ms=1.8GHz"},
	// Everything at once: tick jitter, a 48-task load spike, and a core
	// bouncing offline under that load.
	{"chaos", "jitter:@30ms+250ms=1ms,spike:@60ms=48x2ms,off:c1@80ms+120ms"},
}

// resilienceConfigs compares the paper's two schedutil contenders under
// identical fault plans.
var resilienceConfigs = []config{cfgCFSSched, cfgNestSched}

// resilience runs the CFS-vs-Nest degradation grid: every fault plan,
// both schedulers, invariants swept after every event. The interesting
// output is the violations column staying at zero while the runtime
// degrades gracefully.
func resilience(opt Options) (*Report, error) {
	opt.fill()
	rep := &Report{ID: "resilience", Title: "Graceful degradation under core loss, throttling and load spikes"}
	wl := "configure/llvm_ninja"
	machines := machinesOrDefault(opt, []string{"5218"})
	// Each cell gets its own hub (cellHub) and invariant checker, so the
	// grid stays parallel-safe unless opt.Obs asks for events.
	type resCell struct {
		rf  resilienceFault
		cfg config
		rs  RunSpec
	}
	var cellsIn []resCell
	var specs []RunSpec
	for _, mach := range machines {
		for _, rf := range resilienceFaults {
			for _, cfg := range resilienceConfigs {
				rs := RunSpec{
					Machine:   mach,
					Scheduler: cfg.sched,
					Governor:  cfg.gov,
					Workload:  wl,
					Scale:     opt.Scale,
					Seed:      opt.Seed,
					Faults:    rf.plan,
					Obs:       cellHub(opt),
					Check:     invariant.New(),
				}
				cellsIn = append(cellsIn, resCell{rf: rf, cfg: cfg, rs: rs})
				specs = append(specs, RepeatSpecs(rs, opt.Runs)...)
			}
		}
	}
	all, err := RunGrid(specs, opt.pool())
	if err != nil {
		var ce *CellError
		if errors.As(err, &ce) {
			c := cellsIn[ce.Index/opt.Runs]
			return nil, fmt.Errorf("resilience %s/%s: %w", c.rf.name, c.cfg, ce.Err)
		}
		return nil, err
	}
	i := 0
	for _, mach := range machines {
		sec := Section{
			Heading: mach,
			Columns: []string{"fault plan", "config", "time (s)", "vs none", "violations", "offline", "evacuated", "nest evac"},
		}
		base := map[string]float64{}
		for _, rf := range resilienceFaults {
			for _, cfg := range resilienceConfigs {
				results := all[i : i+opt.Runs]
				i += opt.Runs
				times := metrics.Runtimes(results)
				mean := metrics.Mean(times)
				if rf.name == "none" {
					base[cfg.String()] = mean
				}
				vs := "—"
				if b := base[cfg.String()]; b > 0 && rf.name != "none" {
					vs = pct(metrics.Speedup(b, mean))
				}
				stats := results[0].Stats
				// Violations come from the encoded result, not the live
				// checker: a cell restored from a resume journal never
				// touched c.rs.Check, but its count travelled in
				// Custom["invariant_violations"].
				sec.Rows = append(sec.Rows, []string{
					rf.name, cfg.String(),
					fmt.Sprintf("%.3f ±%.0f%%", mean, cellStd(times)),
					vs,
					fmt.Sprintf("%d", int64(results[0].Custom["invariant_violations"])),
					fmt.Sprintf("%d", stats.Counter("fault.offline")),
					fmt.Sprintf("%d", stats.Counter("cpu.evacuated")),
					fmt.Sprintf("%d", stats.Counter("nest.evacuate")),
				})
			}
		}
		sec.Notes = append(sec.Notes,
			"violations must be zero: the invariant checker sweeps the full machine state after every event",
			"fault plans are timed for the default scale; at much smaller scales the run may end before a fault lands",
		)
		rep.Sections = append(rep.Sections, sec)
	}
	return rep, nil
}

// cellStd is the relative stddev of times, in percent.
func cellStd(ts []float64) float64 {
	m := metrics.Mean(ts)
	if m == 0 {
		return 0
	}
	return 100 * metrics.Stddev(ts) / m
}

func init() {
	registerExperiment(&Experiment{
		ID:    "resilience",
		Title: "CFS vs Nest under deterministic fault injection (hotplug, throttle, jitter, spike)",
		Run:   resilience,
	})
}
