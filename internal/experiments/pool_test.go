package experiments

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/obs"
)

// smallGrid is the byte-identity fixture: both schedulers, faults on,
// invariants on (fresh per-cell observers so the grid is parallel-safe),
// at a tiny scale to keep the test fast.
func smallGrid() []RunSpec {
	var specs []RunSpec
	for _, sched := range []string{"cfs", "nest"} {
		for _, faults := range []string{"", "off:c2@10ms+50ms"} {
			for seed := uint64(1); seed <= 2; seed++ {
				specs = append(specs, RunSpec{
					Machine: "5218", Scheduler: sched, Governor: "schedutil",
					Workload: "configure/llvm_ninja", Scale: 0.005, Seed: seed,
					Faults: faults,
					Obs:    obs.New(),
					Check:  invariant.New(),
				})
			}
		}
	}
	// An overload cell rides along: MMPP arrivals, deadlines, retries and
	// CoDel shedding all replay through the same byte-identity, journal
	// and cancel tests as the classic workload above.
	for _, faults := range []string{"", "off:c2@2ms+10ms"} {
		for seed := uint64(1); seed <= 2; seed++ {
			specs = append(specs, RunSpec{
				Machine: "6130-2", Scheduler: "nest", Governor: "schedutil",
				Workload: "overload/mix-1.5-codel", Scale: 0.01, Seed: seed,
				Faults: faults,
				Obs:    obs.New(),
				Check:  invariant.New(),
			})
		}
	}
	return specs
}

func TestParallelMatchesSerial(t *testing.T) {
	serialSpecs := smallGrid()
	serial, err := RunGrid(serialSpecs, PoolOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial grid: %v", err)
	}
	parallelSpecs := smallGrid() // fresh observers: hubs are single-run state
	parallel, err := RunGrid(parallelSpecs, PoolOptions{Workers: 4})
	if err != nil {
		t.Fatalf("parallel grid: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		sb, err := json.Marshal(serial[i])
		if err != nil {
			t.Fatalf("marshal serial[%d]: %v", i, err)
		}
		pb, err := json.Marshal(parallel[i])
		if err != nil {
			t.Fatalf("marshal parallel[%d]: %v", i, err)
		}
		if string(sb) != string(pb) {
			t.Errorf("cell %d (%s): parallel bytes differ from serial\nserial:   %s\nparallel: %s",
				i, serialSpecs[i], sb, pb)
		}
		if serialSpecs[i].Check.Total() != parallelSpecs[i].Check.Total() {
			t.Errorf("cell %d: invariant violations differ: serial %d, parallel %d",
				i, serialSpecs[i].Check.Total(), parallelSpecs[i].Check.Total())
		}
	}
}

// TestRunGridRace exists for the -race run: many workers, each cell with
// its own enabled obs hub and checker, all of package main's sharing
// hazards exercised at once. Correctness assertions are minimal; the
// race detector is the point.
func TestRunGridRace(t *testing.T) {
	var specs []RunSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, RunSpec{
			Machine: "6130-2", Scheduler: []string{"cfs", "nest"}[i%2], Governor: "schedutil",
			Workload: "configure/mplayer", Scale: 0.004, Seed: uint64(i + 1),
			Obs:   obs.New(),
			Check: invariant.New(),
		})
	}
	results, err := RunGrid(specs, PoolOptions{Workers: 8})
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("cell %d: nil result", i)
		}
		if r.Stats == nil || r.Stats.Events == 0 {
			t.Errorf("cell %d: hub recorded no events despite being enabled", i)
		}
	}
}

func TestRunGridFailFast(t *testing.T) {
	specs := []RunSpec{
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 1},
		{Machine: "5218", Scheduler: "nope", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 1},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 2},
	}
	for _, workers := range []int{1, 4} {
		results, err := RunGrid(specs, PoolOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: error %v is not a CellError", workers, err)
		}
		if ce.Index != 1 {
			t.Errorf("workers=%d: CellError.Index = %d, want 1", workers, ce.Index)
		}
		if !strings.Contains(ce.Error(), "5218/nope/schedutil/configure/mplayer") {
			t.Errorf("workers=%d: error lacks the cell's spec string: %v", workers, ce)
		}
		if results[1] != nil {
			t.Errorf("workers=%d: failing cell has a result", workers)
		}
	}
}

func TestRunGridKeepGoing(t *testing.T) {
	specs := []RunSpec{
		{Machine: "5218", Scheduler: "nope", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 1},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 1},
		{Machine: "5218", Scheduler: "cfs", Governor: "nope", Workload: "configure/mplayer", Scale: 0.004, Seed: 2},
	}
	results, err := RunGrid(specs, PoolOptions{Workers: 2, KeepGoing: true})
	if err == nil {
		t.Fatal("expected joined errors")
	}
	if results[1] == nil {
		t.Error("healthy cell should have completed despite failures around it")
	}
	var count int
	for _, spec := range specs {
		if strings.Contains(err.Error(), spec.String()) {
			count++
		}
	}
	if count != 2 {
		t.Errorf("joined error should name both failing cells, named %d: %v", count, err)
	}
}

func TestRunGridCancel(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	specs := RepeatSpecs(RunSpec{
		Machine: "5218", Scheduler: "cfs", Governor: "schedutil",
		Workload: "configure/mplayer", Scale: 0.004, Seed: 1,
	}, 4)
	for _, workers := range []int{1, 2} {
		_, err := RunGrid(specs, PoolOptions{Workers: workers, Cancel: cancel})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
	}
}

func TestRepeatSpecsObserverRule(t *testing.T) {
	rs := RunSpec{
		Machine: "5218", Scheduler: "cfs", Governor: "schedutil",
		Workload: "configure/mplayer", Seed: 7,
		Obs: obs.New(), Check: invariant.New(),
	}
	specs := RepeatSpecs(rs, 3)
	if specs[0].Obs != rs.Obs || specs[0].Check != rs.Check {
		t.Error("first repeat must keep the observers")
	}
	for i := 1; i < 3; i++ {
		if specs[i].Obs != nil || specs[i].Check != nil {
			t.Errorf("repeat %d must not carry observers", i)
		}
		if specs[i].Seed != rs.Seed+uint64(i) {
			t.Errorf("repeat %d seed = %d, want %d", i, specs[i].Seed, rs.Seed+uint64(i))
		}
	}
}

func TestRunRepeatsParallelMatchesSerial(t *testing.T) {
	rs := RunSpec{
		Machine: "6130-2", Scheduler: "nest", Governor: "schedutil",
		Workload: "configure/mplayer", Scale: 0.004, Seed: 3,
	}
	serial, err := RunRepeats(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunRepeatsParallel(rs, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := json.Marshal(serial)
	pb, _ := json.Marshal(parallel)
	if string(sb) != string(pb) {
		t.Error("parallel repeats differ from serial")
	}
}

func TestCellErrorFormat(t *testing.T) {
	ce := &CellError{
		Index: 3,
		Spec: RunSpec{Machine: "5218", Scheduler: "nest", Governor: "schedutil",
			Workload: "configure/mplayer", Scale: 0.004, Seed: 7},
		Worker:   2,
		Duration: 1500 * time.Millisecond,
		Err:      errors.New("boom"),
	}
	got := ce.Error()
	want := "cell 3 (5218/nest/schedutil/configure/mplayer scale=0.004 seed=7) [worker 2, 1.5s]: boom"
	if got != want {
		t.Errorf("CellError.Error():\n got %q\nwant %q", got, want)
	}
}

func TestKeepGoingReportsWorkerAndDuration(t *testing.T) {
	specs := []RunSpec{
		{Machine: "5218", Scheduler: "nope", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 1},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 1},
	}
	_, err := RunGrid(specs, PoolOptions{Workers: 2, KeepGoing: true})
	if err == nil {
		t.Fatal("expected an error for the bad scheduler")
	}
	if !strings.Contains(err.Error(), "[worker ") {
		t.Errorf("aggregate report lacks worker/duration details: %v", err)
	}
}

func TestRunGridPanicIsolation(t *testing.T) {
	specs := []RunSpec{
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 1},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 2},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.004, Seed: 3},
	}
	specs[1].onStart = func(*cpu.Machine) { panic("injected worker panic") }
	var st GridStats
	results, err := RunGrid(specs, PoolOptions{Workers: 2, KeepGoing: true, Stats: &st})
	if err == nil {
		t.Fatal("expected the panicking cell to error")
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("want CellError for cell 1, got %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cell error does not wrap a PanicError: %v", err)
	}
	if pe.Value != "injected worker panic" || !strings.Contains(pe.Stack, "runCell") {
		t.Errorf("PanicError lost the recovered value or stack: value=%v", pe.Value)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("healthy cells lost their results to a neighbour's panic")
	}
	if results[1] != nil {
		t.Error("panicked cell has a result")
	}
	if st.Panicked.Load() != 1 || st.Failed.Load() != 1 || st.Completed.Load() != 2 {
		t.Errorf("stats = %s", st.String())
	}
}

func TestRunGridWatchdogTimeout(t *testing.T) {
	rs := RunSpec{
		Machine: "5218", Scheduler: "cfs", Governor: "schedutil",
		Workload: "configure/mplayer", Scale: 0.004, Seed: 1,
		Obs: obs.New(),
	}
	// Hold the run at its start line until the (1 ns) watchdog has
	// certainly fired, so the timeout path is deterministic.
	rs.onStart = func(*cpu.Machine) { time.Sleep(20 * time.Millisecond) }
	var st GridStats
	results, err := RunGrid([]RunSpec{rs}, PoolOptions{Workers: 1, CellTimeout: time.Nanosecond, Stats: &st})
	if err == nil {
		t.Fatal("expected a timeout")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error is not a TimeoutError: %v", err)
	}
	if te.Budget != time.Nanosecond {
		t.Errorf("TimeoutError.Budget = %v", te.Budget)
	}
	if !strings.Contains(err.Error(), "wall-clock budget") {
		t.Errorf("unhelpful timeout message: %v", err)
	}
	if results[0] != nil {
		t.Error("timed-out cell delivered a result")
	}
	if st.TimedOut.Load() != 1 || st.Failed.Load() != 1 {
		t.Errorf("stats = %s", st.String())
	}

	// A generous budget and a disabled watchdog must both pass.
	for _, d := range []time.Duration{time.Hour, -1} {
		rs2 := rs
		rs2.Obs, rs2.onStart = nil, nil
		results, err := RunGrid([]RunSpec{rs2}, PoolOptions{Workers: 1, CellTimeout: d})
		if err != nil || results[0] == nil {
			t.Fatalf("CellTimeout=%v: err=%v", d, err)
		}
	}
}

func TestCellKey(t *testing.T) {
	rs := smallGrid()[0]
	k1, ok := CellKey(rs)
	if !ok || len(k1) != 64 {
		t.Fatalf("CellKey = %q, %v", k1, ok)
	}
	if k2, _ := CellKey(smallGrid()[0]); k2 != k1 {
		t.Error("key is not stable across identical specs")
	}
	// Everything that changes the encoded result must change the key.
	for name, mutate := range map[string]func(*RunSpec){
		"seed":     func(r *RunSpec) { r.Seed++ },
		"sched":    func(r *RunSpec) { r.Scheduler = "nest" },
		"faults":   func(r *RunSpec) { r.Faults = "off:c2@10ms+50ms" },
		"no-obs":   func(r *RunSpec) { r.Obs = nil },
		"no-check": func(r *RunSpec) { r.Check = nil },
		"scale":    func(r *RunSpec) { r.Scale = 0.006 },
	} {
		r := smallGrid()[0]
		mutate(&r)
		if k, ok := CellKey(r); !ok || k == k1 {
			t.Errorf("%s: key did not change (ok=%v)", name, ok)
		}
	}
	// Scale 0 and the default scale are the same cell.
	a, b := rs, rs
	a.Scale, b.Scale = 0, DefaultScale
	ka, _ := CellKey(a)
	kb, _ := CellKey(b)
	if ka != kb {
		t.Error("scale 0 and DefaultScale hash differently")
	}
	// Cells without a stable identity refuse a key.
	for name, mutate := range map[string]func(*RunSpec){
		"spec":       func(r *RunSpec) { r.Spec = &machine.Spec{} },
		"bad-faults": func(r *RunSpec) { r.Faults = "not a plan" },
	} {
		r := smallGrid()[0]
		mutate(&r)
		if _, ok := CellKey(r); ok {
			t.Errorf("%s: unexpectedly keyable", name)
		}
	}
}

// TestJournalResumeMatchesSerial is the byte-identity satellite: a grid
// journaled halfway (emulating a kill between cells), then resumed in a
// fresh journal handle, must reproduce the uninterrupted serial run byte
// for byte — faults and invariants on, and under -race when CI runs it.
func TestJournalResumeMatchesSerial(t *testing.T) {
	serial, err := RunGrid(smallGrid(), PoolOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial grid: %v", err)
	}

	path := filepath.Join(t.TempDir(), "grid.journal")
	const scope = "test grid"
	j, err := checkpoint.Create(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	half := smallGrid()[:len(serial)/2]
	if _, err := RunGrid(half, PoolOptions{Workers: 2, Journal: j}); err != nil {
		t.Fatalf("first half: %v", err)
	}
	j.Close() // the process "dies" here

	j2, rep, err := checkpoint.Resume(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rep.Done) != len(half) {
		t.Fatalf("journal replayed %d cells, want %d", len(rep.Done), len(half))
	}
	var st GridStats
	resumed, err := RunGrid(smallGrid(), PoolOptions{
		Workers: 2, Journal: j2, Done: rep.Done, Stats: &st,
	})
	if err != nil {
		t.Fatalf("resumed grid: %v", err)
	}
	if st.Skipped.Load() != int64(len(half)) {
		t.Errorf("skipped %d cells from the journal, want %d", st.Skipped.Load(), len(half))
	}
	if st.Completed.Load() != int64(len(serial)-len(half)) {
		t.Errorf("completed %d cells, want %d", st.Completed.Load(), len(serial)-len(half))
	}
	for i := range serial {
		sb, _ := json.Marshal(serial[i])
		rb, _ := json.Marshal(resumed[i])
		if string(sb) != string(rb) {
			t.Errorf("cell %d: resumed bytes differ from serial\nserial:  %s\nresumed: %s", i, sb, rb)
		}
	}
}

// TestRunGridCancelDrainAndResume is the cancel-semantics satellite:
// cancelling mid-run drains in-flight cells, delivers their results in
// input order (journaled), and a resume completes the grid with
// byte-identical output.
func TestRunGridCancelDrainAndResume(t *testing.T) {
	serial, err := RunGrid(smallGrid(), PoolOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial grid: %v", err)
	}

	path := filepath.Join(t.TempDir(), "grid.journal")
	const scope = "cancel grid"
	j, err := checkpoint.Create(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	var once sync.Once
	var st GridStats
	results, err := RunGrid(smallGrid(), PoolOptions{
		Workers: 2, Journal: j, Cancel: cancel, Stats: &st,
		onCellDone: func(int) { once.Do(func() { close(cancel) }) },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	j.Close()
	delivered := 0
	for i, r := range results {
		if r == nil {
			continue
		}
		delivered++
		sb, _ := json.Marshal(serial[i])
		rb, _ := json.Marshal(r)
		if string(sb) != string(rb) {
			t.Errorf("drained cell %d differs from serial", i)
		}
	}
	if delivered == 0 || delivered == len(serial) {
		t.Fatalf("delivered %d of %d cells; cancel should land mid-grid", delivered, len(serial))
	}
	if int64(delivered) != st.Completed.Load() {
		t.Errorf("delivered %d but stats say %d completed", delivered, st.Completed.Load())
	}

	// Every drained result must have hit the journal before RunGrid
	// returned, or a kill right after cancel would lose it.
	j2, rep, err := checkpoint.Resume(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rep.Done) != delivered {
		t.Fatalf("journal has %d cells, %d were delivered", len(rep.Done), delivered)
	}
	var st2 GridStats
	resumed, err := RunGrid(smallGrid(), PoolOptions{
		Workers: 2, Journal: j2, Done: rep.Done, Stats: &st2,
	})
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if st2.Skipped.Load() != int64(delivered) {
		t.Errorf("resume skipped %d, want %d", st2.Skipped.Load(), delivered)
	}
	for i := range serial {
		sb, _ := json.Marshal(serial[i])
		rb, _ := json.Marshal(resumed[i])
		if string(sb) != string(rb) {
			t.Errorf("cell %d: cancel-then-resume differs from serial", i)
		}
	}
}
