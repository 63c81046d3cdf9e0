package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ordered"
)

// Options control how an experiment runs.
type Options struct {
	// Scale shortens workloads (1 = paper length).
	Scale float64
	// Runs is the number of repetitions averaged per configuration.
	Runs int
	// Seed is the base RNG seed.
	Seed uint64
	// Machines restricts the machine list (presets); nil = experiment
	// default.
	Machines []string
	// Obs, when non-nil, receives decision events from the first run of
	// every measured cell (see RunRepeats for the first-run-only rule).
	// A shared hub is single-run state, so setting it forces the grid
	// serial regardless of Parallel.
	Obs *obs.Hub
	// Parallel is the grid worker count: 0 or 1 runs serially, < 0
	// selects GOMAXPROCS. Results are byte-identical either way.
	Parallel int
	// KeepGoing reports every failing cell instead of stopping the grid
	// at the first error.
	KeepGoing bool
	// Cancel, when non-nil, stops the experiment's grids when closed:
	// in-flight cells drain, unstarted cells are abandoned (see
	// PoolOptions.Cancel).
	Cancel <-chan struct{}
	// CellTimeout is the per-cell wall-clock budget (0 = derive from
	// scale, < 0 = no watchdog); see PoolOptions.CellTimeout.
	CellTimeout time.Duration
	// Journal, when non-nil, records each completed cell durably; Done
	// feeds previously journaled results back in so matching cells are
	// skipped (see PoolOptions).
	Journal *checkpoint.Journal
	Done    map[string]json.RawMessage
	// Stats, when non-nil, accumulates provenance counts across the
	// experiment's grids.
	Stats *GridStats
}

// workers resolves the effective pool width, honouring the shared-hub
// serialisation rule.
func (o Options) workers() int {
	if o.Obs.Enabled() {
		return 1
	}
	if o.Parallel == 0 {
		return 1
	}
	return o.Parallel // RunGrid maps < 0 to GOMAXPROCS
}

// pool returns the PoolOptions the experiment's grids should use.
func (o Options) pool() PoolOptions {
	return PoolOptions{
		Workers:     o.workers(),
		KeepGoing:   o.KeepGoing,
		Cancel:      o.Cancel,
		CellTimeout: o.CellTimeout,
		Journal:     o.Journal,
		Done:        o.Done,
		Stats:       o.Stats,
	}
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = DefaultScale
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Report is an experiment's rendered result.
type Report struct {
	ID, Title string
	Sections  []Section
}

// Section is one table (usually one machine) of a report.
type Section struct {
	Heading string
	Columns []string
	Rows    [][]string
	// Pre is free-form preformatted content (traces) printed before the
	// table.
	Pre string
	// Notes follow the table.
	Notes []string
}

// Render writes the report as aligned text tables.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for i := range r.Sections {
		s := &r.Sections[i]
		if s.Heading != "" {
			fmt.Fprintf(w, "\n-- %s --\n", s.Heading)
		}
		if s.Pre != "" {
			fmt.Fprintln(w, s.Pre)
		}
		if len(s.Columns) > 0 {
			renderTable(w, s.Columns, s.Rows)
		}
		for _, n := range s.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
}

func renderTable(w io.Writer, cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		fmt.Fprintln(w, b.String())
	}
	line(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// Experiment regenerates one paper artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

var experimentRegistry = map[string]*Experiment{}

func registerExperiment(e *Experiment) {
	if _, dup := experimentRegistry[e.ID]; dup {
		panic("experiments: duplicate " + e.ID)
	}
	experimentRegistry[e.ID] = e
}

// ByID returns a registered experiment.
func ByID(id string) (*Experiment, error) {
	if e, ok := experimentRegistry[id]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (see List)", id)
}

// List returns all experiment IDs, sorted.
func List() []string {
	return ordered.Keys(experimentRegistry)
}

// Titles returns id → title for all experiments.
func Titles() map[string]string {
	out := make(map[string]string, len(experimentRegistry))
	for _, id := range ordered.Keys(experimentRegistry) {
		out[id] = experimentRegistry[id].Title
	}
	return out
}

// --- shared helpers for figure construction ---

// config is one scheduler/governor pair.
type config struct{ sched, gov string }

func (c config) String() string {
	g := c.gov
	if g == "schedutil" {
		g = "sched"
	} else if g == "performance" {
		g = "perf"
	}
	return c.sched + "-" + g
}

var (
	cfgCFSSched   = config{"cfs", "schedutil"}
	cfgCFSPerf    = config{"cfs", "performance"}
	cfgNestSched  = config{"nest", "schedutil"}
	cfgNestPerf   = config{"nest", "performance"}
	cfgSmoveSched = config{"smove", "schedutil"}
)

// paperConfigs is the standard four-bar set of the figures.
var paperConfigs = []config{cfgCFSSched, cfgCFSPerf, cfgNestSched, cfgNestPerf}

// measure runs a (machine, config, workload) cell and aggregates repeats.
type cell struct {
	results []*metrics.Result
}

func (c *cell) meanTime() float64   { return metrics.Mean(metrics.Runtimes(c.results)) }
func (c *cell) meanEnergy() float64 { return metrics.Mean(metrics.Energies(c.results)) }
func (c *cell) stdPct() float64 {
	ts := metrics.Runtimes(c.results)
	m := metrics.Mean(ts)
	if m == 0 {
		return 0
	}
	return 100 * metrics.Stddev(ts) / m
}
func (c *cell) first() *metrics.Result { return c.results[0] }

func measure(machineName string, cfg config, wl string, opt Options) (*cell, error) {
	cells, err := measureGrid([]cellReq{{mach: machineName, cfg: cfg, wl: wl}}, opt)
	if err != nil {
		return nil, err
	}
	return cells[0], nil
}

// cellReq names one cell of an experiment grid; a zero scale takes the
// experiment-wide Options.Scale.
type cellReq struct {
	mach  string
	cfg   config
	wl    string
	scale float64
}

// measureGrid measures every requested cell — opt.Runs repeats each —
// through one RunGrid call, so the whole experiment's runs share the
// worker pool. cells[i] aggregates the repeats of reqs[i]; observers
// (opt.Obs) attach to the first repeat of each cell, exactly as the
// serial path always did.
func measureGrid(reqs []cellReq, opt Options) ([]*cell, error) {
	specs := make([]RunSpec, 0, len(reqs)*opt.Runs)
	for _, rq := range reqs {
		scale := rq.scale
		if scale == 0 {
			scale = opt.Scale
		}
		rs := RunSpec{
			Machine:   rq.mach,
			Scheduler: rq.cfg.sched,
			Governor:  rq.cfg.gov,
			Workload:  rq.wl,
			Scale:     scale,
			Seed:      opt.Seed,
			Obs:       opt.Obs,
		}
		specs = append(specs, RepeatSpecs(rs, opt.Runs)...)
	}
	results, err := RunGrid(specs, opt.pool())
	if err != nil {
		return nil, err
	}
	cells := make([]*cell, len(reqs))
	for i := range reqs {
		cells[i] = &cell{results: results[i*opt.Runs : (i+1)*opt.Runs]}
	}
	return cells, nil
}

// pct renders a speedup as the paper does (+12.3%).
func pct(v float64) string { return fmt.Sprintf("%+.1f%%", 100*v) }

// machinesOrDefault resolves the machine list.
func machinesOrDefault(opt Options, def []string) []string {
	if len(opt.Machines) > 0 {
		return opt.Machines
	}
	return def
}

// paperMachineNames is the four evaluation servers in figure order.
var paperMachineNames = []string{"6130-2", "6130-4", "5218", "e7-8870"}
