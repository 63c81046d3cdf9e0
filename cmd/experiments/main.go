// Command experiments regenerates the paper's figures and tables.
//
// Usage:
//
//	experiments -list
//	experiments -run fig5
//	experiments -run fig10 -machines 6130-2,5218 -runs 5 -scale 0.1
//	experiments -run all
//
// Long sweeps are restartable jobs: with -journal each completed cell
// is durably recorded, SIGINT/SIGTERM drains in-flight cells instead of
// discarding them, and -resume skips everything already journaled —
// producing byte-identical output to an uninterrupted run (see
// docs/ROBUSTNESS.md).
//
//	experiments -run all -journal sweep.journal
//	<interrupt or crash>
//	experiments -run all -journal sweep.journal -resume
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profiling"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		runID    = flag.String("run", "", "experiment id (see -list), or \"all\"")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		scale    = flag.Float64("scale", experiments.DefaultScale, "workload scale (1 = paper length)")
		runs     = flag.Int("runs", 3, "repetitions per configuration")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		machines = flag.String("machines", "", "comma-separated machine presets (default: experiment's own)")
		format   = flag.String("format", "text", "output format: text, csv or json")
		events   = flag.String("events", "", "stream decision events (first run of each cell) as JSONL to this file")
		parallel = flag.Int("parallel", 1, "grid workers: 1 = serial, -1 = GOMAXPROCS (results are byte-identical either way)")
		keep     = flag.Bool("keep-going", false, "run every cell and report all failures instead of stopping at the first")
		journal  = flag.String("journal", "", "record each completed cell to this checkpoint journal")
		resume   = flag.Bool("resume", false, "skip cells already recorded in -journal (requires -journal)")
		cellTO   = flag.Duration("cell-timeout", 0, "per-cell wall-clock budget (0 = derive from scale, -1ns = no watchdog)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole grid to this file")
		memProf  = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	)
	flag.Parse()

	profStop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer profStop()

	if *list || *runID == "" {
		titles := experiments.Titles()
		for _, id := range experiments.List() {
			fmt.Printf("  %-20s %s\n", id, titles[id])
		}
		return 0
	}

	// Reject bad parameters up front with a usage error (exit 2) rather
	// than panicking or failing halfway through a grid.
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "experiments: -runs must be at least 1")
		return 2
	}
	if err := experiments.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *parallel == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -parallel must be 1 (serial), > 1, or -1 for GOMAXPROCS")
		return 2
	}
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -journal")
		return 2
	}
	if *journal != "" && *events != "" {
		fmt.Fprintln(os.Stderr, "experiments: -journal cannot be combined with -events: resumed cells are not re-run, so the event stream would be silently incomplete")
		return 2
	}
	opt := experiments.Options{
		Scale: *scale, Runs: *runs, Seed: *seed,
		Parallel: *parallel, KeepGoing: *keep, CellTimeout: *cellTO,
		Stats: &experiments.GridStats{},
	}
	if *machines != "" {
		opt.Machines = strings.Split(*machines, ",")
		for _, m := range opt.Machines {
			if _, err := machine.Preset(m); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 2
			}
		}
	}

	// The journal scope ties a journal to the grid-defining flags; knobs
	// that cannot change results (-parallel, -format, -keep-going) stay
	// out so a resume may change them freely.
	scope := fmt.Sprintf("experiments run=%s machines=%s runs=%d scale=%g seed=%d",
		*runID, *machines, *runs, *scale, *seed)
	var jnl *checkpoint.Journal
	if *journal != "" {
		var err error
		if *resume {
			var rep *checkpoint.Replay
			jnl, rep, err = checkpoint.Resume(*journal, scope)
			switch {
			case errors.Is(err, os.ErrNotExist):
				fmt.Fprintf(os.Stderr, "experiments: no journal at %s yet, starting fresh\n", *journal)
				jnl, err = checkpoint.Create(*journal, scope)
			case err == nil:
				for _, w := range rep.Warnings {
					fmt.Fprintln(os.Stderr, "experiments: journal:", w)
				}
				fmt.Fprintf(os.Stderr, "experiments: resuming from %s: %d cell(s) journaled\n", *journal, len(rep.Done))
				opt.Done = rep.Done
			}
		} else {
			if fi, serr := os.Stat(*journal); serr == nil && fi.Size() > 0 {
				fmt.Fprintf(os.Stderr, "experiments: journal %s already exists; pass -resume to continue it, or remove it for a fresh run\n", *journal)
				return 2
			}
			jnl, err = checkpoint.Create(*journal, scope)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer jnl.Close()
		opt.Journal = jnl
	}

	// Signal-triggered drain: the first SIGINT/SIGTERM stops claiming new
	// cells but lets in-flight ones finish (and journal); a second signal
	// exits immediately.
	cancel := make(chan struct{})
	opt.Cancel = cancel
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "experiments: interrupted — draining in-flight cells (journaled work is safe; signal again to exit now)")
		close(cancel)
		<-sigc
		provenance(os.Stderr, opt, jnl, true)
		os.Exit(130)
	}()

	var jsonl *obs.JSONLRecorder
	var eventsF *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		eventsF = f
		jsonl = obs.NewJSONL(f)
		opt.Obs = obs.New(jsonl)
	}

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.List()
	}
	failed := false
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		//lint:wallclock progress display only: wall time is printed to the console, not written to reports
		start := time.Now()
		rep, err := e.Run(opt)
		if err != nil {
			reportRunError(id, err)
			if errors.Is(err, experiments.ErrCanceled) {
				if *journal != "" {
					fmt.Fprintf(os.Stderr, "experiments: %s interrupted; rerun with -journal %s -resume to finish it\n", id, *journal)
				}
				provenance(os.Stderr, opt, jnl, interrupted.Load())
				return 1
			}
			if *keep {
				failed = true
				continue
			}
			provenance(os.Stderr, opt, jnl, interrupted.Load())
			return 1
		}
		switch *format {
		case "csv":
			if err := rep.RenderCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
		case "json":
			if err := rep.RenderJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
		default:
			rep.Render(os.Stdout)
			//lint:wallclock progress display only: wall time is printed to the console, not written to reports
			fmt.Printf("(%s finished in %.1fs wall)\n\n", id, time.Since(start).Seconds())
		}
	}
	if jsonl != nil {
		err := jsonl.Flush()
		if cerr := eventsF.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", jsonl.Lines(), *events)
	}
	provenance(os.Stderr, opt, jnl, interrupted.Load())
	if failed {
		return 1
	}
	return 0
}

// provenance prints the run's accounting block — what ran, what was
// restored from the journal, what failed and how — on every exit path
// of a journaled or interrupted run. Quiet otherwise: an ordinary
// successful run keeps its output unchanged.
func provenance(w *os.File, opt experiments.Options, jnl *checkpoint.Journal, interrupted bool) {
	s := opt.Stats
	if s == nil || (jnl == nil && !interrupted) {
		return
	}
	fmt.Fprintln(w, "--- provenance ---")
	fmt.Fprintf(w, "completed:            %d\n", s.Completed.Load())
	fmt.Fprintf(w, "skipped-from-journal: %d\n", s.Skipped.Load())
	fmt.Fprintf(w, "failed:               %d\n", s.Failed.Load())
	fmt.Fprintf(w, "  timed-out:          %d\n", s.TimedOut.Load())
	fmt.Fprintf(w, "  panicked:           %d\n", s.Panicked.Load())
	fmt.Fprintf(w, "interrupted:          %v\n", interrupted)
	if jnl != nil {
		fmt.Fprintf(w, "journal:              %s (%d record(s) appended)\n", jnl.Path(), jnl.Appended())
	}
}

// reportRunError prints every failing cell with its RunSpec string (one
// line per cell) instead of a single bare error, so a broken cell in a
// big grid is attributable at a glance.
func reportRunError(id string, err error) {
	cells := cellErrors(err)
	if len(cells) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
		return
	}
	for _, ce := range cells {
		fmt.Fprintf(os.Stderr, "experiments: %s: cell %d [%s] (worker %d, %s): %v\n",
			id, ce.Index, ce.Spec, ce.Worker, ce.Duration.Round(time.Millisecond), ce.Err)
	}
}

// cellErrors unwraps err (possibly an errors.Join of several grids'
// failures) into its CellError leaves.
func cellErrors(err error) []*experiments.CellError {
	var out []*experiments.CellError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		// Descend into joins before errors.As: As would stop at the first
		// leaf of a joined tree and hide the other failing cells.
		if joined, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range joined.Unwrap() {
				walk(sub)
			}
			return
		}
		var ce *experiments.CellError
		if errors.As(e, &ce) {
			out = append(out, ce)
		}
	}
	walk(err)
	return out
}
