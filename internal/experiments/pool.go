package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/ordered"
	"repro/internal/sim"
)

// PoolOptions configure RunGrid.
type PoolOptions struct {
	// Workers is the number of goroutines executing cells; <= 0 selects
	// GOMAXPROCS. Workers == 1 runs the grid serially on the calling
	// goroutine (the byte-identity reference for the parallel path).
	Workers int
	// KeepGoing runs every cell even after failures and reports all
	// errors joined; the default is fail-fast: workers stop claiming new
	// cells after the first error and the lowest-index error is returned.
	KeepGoing bool
	// Cancel, when non-nil, aborts the grid when closed: workers stop
	// claiming cells, but cells already running drain to completion and
	// their results are delivered in input order (and journaled), so a
	// cancelled grid loses no finished work. RunGrid returns ErrCanceled
	// (joined with any cell errors) only if at least one cell was
	// actually abandoned.
	Cancel <-chan struct{}
	// CellTimeout bounds one cell's wall-clock time. Zero derives a
	// budget from the cell's scale (autoCellTimeout); negative disables
	// the watchdog. A cell over budget is stopped cooperatively at its
	// next event boundary and fails with a TimeoutError.
	CellTimeout time.Duration
	// Journal, when non-nil, durably records each completed cell's
	// encoded result (checkpoint journal). Cells without a stable
	// identity (explicit Spec, unparsable fault plan) are run but not
	// journaled.
	Journal *checkpoint.Journal
	// Done maps cell keys (CellKey) to previously journaled results;
	// matching cells are skipped and their results decoded instead of
	// re-run. Usually checkpoint.Resume's Replay.Done.
	Done map[string]json.RawMessage
	// Stats, when non-nil, receives live provenance counts. Safe to read
	// concurrently (signal handlers print it mid-run).
	Stats *GridStats
	// onCellDone, when set, observes each finished cell's index (test
	// hook for cancel/resume sequencing).
	onCellDone func(i int)
}

// ErrCanceled is returned by RunGrid when PoolOptions.Cancel is closed
// before every cell has run.
var ErrCanceled = errors.New("experiments: grid canceled")

// CellError ties a run failure to the grid cell that produced it, plus
// where and how long it ran — on a multi-hour sweep, "which worker and
// after how much wall-clock" is the first question a failure raises.
type CellError struct {
	Index    int     // position in the specs slice
	Spec     RunSpec // the failing cell
	Worker   int     // pool worker that ran the cell
	Duration time.Duration
	Err      error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %d (%s) [worker %d, %s]: %v",
		e.Index, e.Spec.String(), e.Worker, e.Duration.Round(time.Millisecond), e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// PanicError is a recovered worker panic: the cell fails, the process
// survives, and the stack travels with the error so the crash is still
// debuggable from a -keep-going aggregate report.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// TimeoutError reports a cell stopped by the watchdog, carrying the
// cell's last observability counters (when it had a hub) so a hung run
// leaves a diagnostic trail instead of just "timed out".
type TimeoutError struct {
	Budget   time.Duration
	SimTime  sim.Time
	Counters map[string]int64
}

func (e *TimeoutError) Error() string {
	s := fmt.Sprintf("cell exceeded its %s wall-clock budget (stopped at simulated time %v)", e.Budget, e.SimTime)
	if len(e.Counters) == 0 {
		return s
	}
	names := ordered.Keys(e.Counters)
	if len(names) > 8 {
		names = names[:8]
	}
	s += "; last counters:"
	for _, name := range names {
		s += fmt.Sprintf(" %s=%d", name, e.Counters[name])
	}
	return s
}

// GridStats are a grid's live provenance counts. All fields are atomic:
// workers bump them mid-run and signal handlers read them concurrently.
// Failed includes the TimedOut and Panicked subcounts.
type GridStats struct {
	Completed atomic.Int64 // cells run to a result this invocation
	Skipped   atomic.Int64 // cells restored from the journal
	Failed    atomic.Int64 // cells that errored (any cause)
	TimedOut  atomic.Int64 // ... of which the watchdog stopped
	Panicked  atomic.Int64 // ... of which panicked
}

func (s *GridStats) complete() {
	if s != nil {
		s.Completed.Add(1)
	}
}

func (s *GridStats) skip() {
	if s != nil {
		s.Skipped.Add(1)
	}
}

func (s *GridStats) fail(err error) {
	if s == nil {
		return
	}
	s.Failed.Add(1)
	var pe *PanicError
	var te *TimeoutError
	switch {
	case errors.As(err, &te):
		s.TimedOut.Add(1)
	case errors.As(err, &pe):
		s.Panicked.Add(1)
	}
}

// String renders the provenance block's one-line summary.
func (s *GridStats) String() string {
	return fmt.Sprintf("completed %d, skipped (journal) %d, failed %d (timed out %d, panicked %d)",
		s.Completed.Load(), s.Skipped.Load(), s.Failed.Load(), s.TimedOut.Load(), s.Panicked.Load())
}

// autoCellTimeout derives a cell's wall-clock budget from its simulated
// length: the default scale finishes in seconds, so 2 minutes per
// default-scale unit is an order of magnitude of slack — tight enough
// to catch a wedged cell, loose enough to never fire on a healthy one.
func autoCellTimeout(rs RunSpec) time.Duration {
	scale := rs.Scale
	if scale <= 0 {
		scale = DefaultScale
	}
	mult := scale / DefaultScale
	if mult < 1 {
		mult = 1
	}
	d := time.Duration(float64(2*time.Minute) * mult)
	if max := 2 * time.Hour; d > max {
		d = max
	}
	return d
}

// runCell executes one cell with panic isolation and a watchdog. The
// watchdog stops the cell's engine cooperatively (sim.Engine.RequestStop
// is the engine's one cross-goroutine-safe method), so "cancellation" is
// just the run loop exiting at the next event boundary — no goroutine is
// killed and no state is torn down mid-event.
func runCell(rs RunSpec, timeout time.Duration) (res *metrics.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	if timeout == 0 {
		timeout = autoCellTimeout(rs)
	}
	if timeout < 0 {
		return Run(rs)
	}

	var mp atomic.Pointer[cpu.Machine]
	var expired atomic.Bool
	//lint:wallclock the cell watchdog times out wedged host-side runs; it never feeds sim state or results
	timer := time.AfterFunc(timeout, func() {
		// Store expired before loading the machine; onStart does the
		// mirror-image store/load. With both orders sequentially
		// consistent, at least one side sees the other, so the stop
		// lands whether the timer fires before or after the machine
		// exists.
		expired.Store(true)
		if m := mp.Load(); m != nil {
			m.Engine().RequestStop()
		}
	})
	defer timer.Stop()

	prev := rs.onStart
	rs.onStart = func(m *cpu.Machine) {
		mp.Store(m)
		if expired.Load() {
			m.Engine().RequestStop()
		}
		if prev != nil {
			prev(m)
		}
	}
	res, err = Run(rs)
	if err == nil && expired.Load() {
		// The timer fired, but only an actually-truncated run is a
		// timeout: a cell that completed in the same instant keeps its
		// (valid, deterministic) result.
		if m := mp.Load(); m != nil && m.Engine().StopRequested() && res.Custom["truncated"] == 1 {
			te := &TimeoutError{Budget: timeout, SimTime: res.Runtime}
			if rs.Obs.Enabled() {
				te.Counters = rs.Obs.Snapshot()
			}
			return nil, te
		}
	}
	return res, err
}

// RunGrid executes independent cells across a worker pool and delivers
// results in input order: results[i] is the result of specs[i] (nil for
// cells that failed or were never started).
//
// Determinism: each cell owns a full simulation (engine, machine,
// policy, RNG seeded from its spec), so a cell's result bytes do not
// depend on which worker ran it or on what ran concurrently. A parallel
// grid therefore produces byte-identical encoded results to a serial
// one — TestParallelMatchesSerial holds the pool to that — and a
// journal-resumed grid to an uninterrupted one, because a cell's key
// covers everything that determines its result.
//
// Robustness: a panicking cell fails with a PanicError instead of
// crashing the process; a cell over its wall-clock budget fails with a
// TimeoutError; both compose with KeepGoing, so one bad cell cannot
// take a multi-hour sweep down with it.
//
// Observers are the one sharing hazard: obs.Hub, invariant.Checker and
// the metrics collectors are single-run state and must not be shared
// across cells of a parallel grid. Give each spec its own (as
// resilience.go does), or keep Workers at 1.
func RunGrid(specs []RunSpec, opts PoolOptions) ([]*metrics.Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*metrics.Result, len(specs))
	errs := make([]error, len(specs))

	// Resolve the journal skip set: cells whose key appears in Done are
	// restored from their journaled bytes instead of re-run. A record
	// that fails to decode is treated as absent (the cell re-runs and
	// re-journals; last record wins on the next resume).
	todo := make([]int, 0, len(specs))
	keys := make([]string, len(specs))
	for i := range specs {
		if opts.Journal != nil || opts.Done != nil {
			if key, ok := CellKey(specs[i]); ok {
				keys[i] = key
				if raw, done := opts.Done[key]; done {
					if res, derr := DecodeResult(raw); derr == nil {
						results[i] = res
						opts.Stats.skip()
						continue
					}
				}
			}
		}
		todo = append(todo, i)
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	canceled := func() bool {
		select {
		case <-opts.Cancel:
			return true
		default:
			return false
		}
	}

	var next atomic.Int64
	var stop atomic.Bool
	var cancelSkipped atomic.Bool

	work := func(worker int) {
		for !stop.Load() {
			k := int(next.Add(1)) - 1
			if k >= len(todo) {
				return
			}
			// Cancellation point: before starting a cell, never during.
			// In-flight cells drain; this one is abandoned unstarted.
			if canceled() {
				cancelSkipped.Store(true)
				return
			}
			i := todo[k]
			//lint:wallclock wall duration of a failed cell goes to the CellError diagnostic, not to results
			start := time.Now()
			res, err := runCell(specs[i], opts.CellTimeout)
			if err == nil && opts.Journal != nil && keys[i] != "" {
				if raw, eerr := EncodeResult(res); eerr == nil {
					err = opts.Journal.Append(keys[i], raw)
				} else {
					err = eerr
				}
				// A journal failure keeps the (valid) result but is
				// surfaced as a cell error: durability was requested,
				// and losing it silently would turn the next resume
				// into a lie.
			}
			if err != nil {
				errs[i] = &CellError{
					Index: i, Spec: specs[i], Worker: worker,
					//lint:wallclock error diagnostics carry wall duration; never part of encoded results
					Duration: time.Since(start), Err: err,
				}
				opts.Stats.fail(err)
				if res != nil {
					results[i] = res
				}
				if !opts.KeepGoing {
					stop.Store(true)
					return
				}
				if opts.onCellDone != nil {
					opts.onCellDone(i)
				}
				continue
			}
			results[i] = res
			opts.Stats.complete()
			if opts.onCellDone != nil {
				opts.onCellDone(i)
			}
		}
	}

	if workers <= 1 {
		// Serial path: the same claim loop on the calling goroutine.
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				work(worker)
			}(w)
		}
		wg.Wait()
	}

	if !opts.KeepGoing {
		for _, err := range errs {
			if err != nil {
				return results, err
			}
		}
	}
	return results, joinCellErrors(errs, cancelSkipped.Load())
}

// joinCellErrors folds per-cell errors (already in index order) and a
// cancellation into one error, nil when the grid fully succeeded.
func joinCellErrors(errs []error, canceled bool) error {
	var all []error
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	if canceled {
		all = append(all, ErrCanceled)
	}
	return errors.Join(all...)
}

// RepeatSpecs expands rs into n specs with consecutive seeds, observers
// attached to the first repeat only (the RunRepeats rule).
func RepeatSpecs(rs RunSpec, n int) []RunSpec {
	specs := make([]RunSpec, n)
	for i := 0; i < n; i++ {
		r := rs
		r.Seed = rs.Seed + uint64(i)
		if i > 0 {
			r.Obs, r.Check = nil, nil
			r.SampleEvery = 0
		}
		specs[i] = r
	}
	return specs
}
