package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// fixtureNest is a miniature nest-run event stream touching every
// report section: run header, placements (layered), nest dynamics,
// two gauge batches on a 4-core single-socket box, and a summary.
func fixtureNest() []obs.Event {
	ms := sim.Millisecond
	return []obs.Event{
		obs.RunInfo{Machine: "test4", Scheduler: "nest", Governor: "schedutil", Workload: "demo", Scale: 1, Seed: 7},
		obs.PlacementDecision{T: 1 * ms, Sched: "nest", Task: 1, Core: 0, Path: "primary", Scanned: 1},
		obs.PlacementDecision{T: 2 * ms, Sched: "cfs", Task: 2, Core: 1, Path: "target_fallback", Scanned: 70},
		obs.PlacementDecision{T: 2 * ms, Sched: "nest", Task: 2, Core: 1, Path: "fallback", Scanned: 70},
		obs.NestExpand{T: 2 * ms, Core: 1, Primary: 2, Reserve: 0, Reason: "promotion"},
		obs.Migration{T: 3 * ms, Task: 2, From: 1, To: 0, Reason: "schedule_in"},
		obs.TickBalance{T: 4 * ms, From: 0, To: 2, Task: 1, Kind2: "newidle"},
		&obs.CoreGauge{T: 4 * ms, Core: 0, State: "busy", FreqMHz: 2600, Queue: 1},
		&obs.CoreGauge{T: 4 * ms, Core: 1, State: "spin", FreqMHz: 2600, Queue: 0},
		&obs.CoreGauge{T: 4 * ms, Core: 2, State: "idle", FreqMHz: 1200, Queue: 0},
		&obs.CoreGauge{T: 4 * ms, Core: 3, State: "offline", FreqMHz: 0, Queue: 0},
		&obs.NestGauge{T: 4 * ms, Primary: 2, Reserve: 0},
		&obs.SocketGauge{T: 4 * ms, Socket: 0, Busy: 1, Online: 3},
		&obs.CoreGauge{T: 8 * ms, Core: 0, State: "busy", FreqMHz: 2800, Queue: 0},
		&obs.CoreGauge{T: 8 * ms, Core: 1, State: "busy", FreqMHz: 2800, Queue: 2},
		&obs.CoreGauge{T: 8 * ms, Core: 2, State: "idle", FreqMHz: 1200, Queue: 0},
		&obs.CoreGauge{T: 8 * ms, Core: 3, State: "offline", FreqMHz: 0, Queue: 0},
		&obs.NestGauge{T: 8 * ms, Primary: 2, Reserve: 1},
		&obs.SocketGauge{T: 8 * ms, Socket: 0, Busy: 2, Online: 3},
		obs.RunSummary{Machine: "test4", Scheduler: "nest", Governor: "schedutil", Workload: "demo", Seed: 7,
			RuntimeNS: 10e6, EnergyJ: 1.5, WakeP50: 10_000, WakeP95: 20_000, WakeP99: 30_000, WakeP999: 40_000, Wakeups: 100},
	}
}

// fixtureCFS is the same shape under cfs at the same seed.
func fixtureCFS() []obs.Event {
	ms := sim.Millisecond
	return []obs.Event{
		obs.RunInfo{Machine: "test4", Scheduler: "cfs", Governor: "schedutil", Workload: "demo", Scale: 1, Seed: 7},
		obs.PlacementDecision{T: 1 * ms, Sched: "cfs", Task: 1, Core: 0, Path: "prev", Scanned: 1},
		obs.PlacementDecision{T: 2 * ms, Sched: "cfs", Task: 2, Core: 2, Path: "idlest_group", Scanned: 12},
		obs.Migration{T: 3 * ms, Task: 2, From: 2, To: 3, Reason: "schedule_in"},
		&obs.CoreGauge{T: 4 * ms, Core: 0, State: "busy", FreqMHz: 2400, Queue: 0},
		&obs.CoreGauge{T: 4 * ms, Core: 1, State: "idle", FreqMHz: 1200, Queue: 0},
		&obs.CoreGauge{T: 4 * ms, Core: 2, State: "busy", FreqMHz: 2400, Queue: 1},
		&obs.CoreGauge{T: 4 * ms, Core: 3, State: "idle", FreqMHz: 1200, Queue: 0},
		&obs.SocketGauge{T: 4 * ms, Socket: 0, Busy: 2, Online: 4},
		obs.RunSummary{Machine: "test4", Scheduler: "cfs", Governor: "schedutil", Workload: "demo", Seed: 7,
			RuntimeNS: 12e6, EnergyJ: 1.8, WakeP50: 12_000, WakeP95: 26_000, WakeP99: 27_000, WakeP999: 50_000, Wakeups: 110},
	}
}

// roundTrip encodes events to JSONL and decodes them back, so the test
// covers the same path loadFile takes on a real -events file.
func roundTrip(t *testing.T, evs []obs.Event) []obs.Event {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewJSONL(&buf)
	for _, ev := range evs {
		rec.Record(ev)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	out, err := decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

const goldenReport = `run: demo on test4, nest-schedutil (scale 1, seed 7)
events: 20

core warmth (busy+spin share per bin; 8 samples):
  core   3 |xx|
  core   2 |  |
  core   1 |@@|
  core   0 |@@|
            0s → 0.008000s
  glyphs: ' '=cold  .:-=+*#%=warming  @=always warm  x=offline

busy-core frequency (mean MHz per bin, peak 2800):
  |%@|
run-queue depth (runnable tasks waiting, mean per bin, peak 2.0):
  |=@|
socket busy share (busy/online cores, mean per bin):
  socket 0 |=@| peak 67%

placement paths (3 decisions; layered policies report each layer):
  cfs.target_fallback            1   33.3%  ########################
  nest.fallback                  1   33.3%  ########################
  nest.primary                   1   33.3%  ########################
scan cost (cores examined per placement decision):
  1            1  ################
  64+          2  ################################
nest size over time (1 expand, 0 compact, 0 impatience trips):
  primary  max 2   |              @@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@| 0.008000s
  reserve  max 1   |                                                           @| 0.008000s
runtime: 1 migrations, 1 balance pulls

counters (recomputed from the event stream):
  cfs.target_fallback          1
  cpu.balance.newidle          1
  cpu.migration                1
  gauge.core                   8
  gauge.nest                   2
  gauge.socket                 2
  nest.expand                  1
  nest.fallback                1
  nest.primary                 1
  runs                         1
  summaries                    1

summary: runtime 0.010000s  energy 1.5J  wake p50/p95/p99/p99.9 10.0µs/20.0µs/30.0µs/40.0µs  (100 wakeups)
`

const goldenDiff = `diff: A = demo on test4, nest-schedutil seed=7
      B = demo on test4, cfs-schedutil seed=7

metric      A          B          delta
runtime     0.010000s  0.012000s  +20.0%
energy      1.5J       1.8J       +20.0%
wake p50    10.0µs     12.0µs     +20.0%
wake p95    20.0µs     26.0µs     +30.0%
wake p99    30.0µs     27.0µs     -10.0%
wake p99.9  40.0µs     50.0µs     +25.0%
wakeups     100        110        +10.0%

counter              A  B  delta
cfs.idlest_group     0  1  +1
cfs.prev             0  1  +1
cfs.target_fallback  1  0  -1
cpu.balance.newidle  1  0  -1
cpu.migration        1  1  +0
gauge.core           8  4  -4
gauge.nest           2  0  -2
gauge.socket         2  1  -1
nest.expand          1  0  -1
nest.fallback        1  0  -1
nest.primary         1  0  -1
runs                 1  1  +0
summaries            1  1  +0
`

// TestReportGolden pins the full report for the nest fixture: the
// report is a pure function of the stream, so any byte change here is a
// deliberate format change.
func TestReportGolden(t *testing.T) {
	a := analyze(roundTrip(t, fixtureNest()))
	var buf bytes.Buffer
	writeReport(&buf, a)
	if got := buf.String(); got != goldenReport {
		t.Errorf("report drifted from golden.\ngot:\n%s\nwant:\n%s\ndiff hint: got %q", got, goldenReport, got)
	}
}

// TestDiffGolden pins the diff of the nest and cfs fixtures.
func TestDiffGolden(t *testing.T) {
	a := analyze(roundTrip(t, fixtureNest()))
	b := analyze(roundTrip(t, fixtureCFS()))
	var buf bytes.Buffer
	writeDiff(&buf, "a.jsonl", "b.jsonl", a, b)
	if got := buf.String(); got != goldenDiff {
		t.Errorf("diff drifted from golden.\ngot:\n%s\nwant:\n%s\ndiff hint: got %q", got, goldenDiff, got)
	}
}

// TestLoadFileSkipsSlices checks that execution slices leave the report
// unchanged: the nest fixture written to a file with a slice after
// every event reports exactly the golden.
func TestLoadFileSkipsSlices(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nest.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewJSONL(f)
	var s obs.ExecSlice
	for i, ev := range fixtureNest() {
		rec.Record(ev)
		s = obs.ExecSlice{T: sim.Time(i), End: sim.Time(i + 1), Core: i % 4, Task: 1, TaskName: "w", FreqMHz: 2600}
		rec.Record(&s)
	}
	err = rec.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	a, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeReport(&buf, a)
	if got := buf.String(); got != goldenReport {
		t.Errorf("slices changed the report:\n%s", got)
	}
}

// TestExpandFile checks nestobs expand: the nest fixture recorded to a
// file leaves out its repeated core gauges, and expand writes back
// every fixture event, one full line each.
func TestExpandFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nest.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewJSONL(f)
	var want []byte
	for _, ev := range fixtureNest() {
		rec.Record(ev)
		if want, err = obs.AppendJSONL(want, ev); err != nil {
			t.Fatal(err)
		}
	}
	err = rec.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gauge := []byte(`"ev":"core_gauge"`)
	if n, all := bytes.Count(recorded, gauge), bytes.Count(want, gauge); n >= all {
		t.Fatalf("recorded stream has %d of %d core gauges; the fixture repeats cores 2 and 3", n, all)
	}
	var got bytes.Buffer
	if err := expandFile(&got, path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("expand wrote:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// fixtureOverload is a serving-run stream: base arrivals plus one
// retry, each attempt terminal in exactly one outcome — 6 completed,
// 2 shed (codel + full), 2 timed out (queued + served) across two
// classes, with a run summary so goodput is computable.
func fixtureOverload() []obs.Event {
	ms := sim.Millisecond
	pol := "codel:target=2ms,interval=8ms"
	evs := []obs.Event{
		obs.RunInfo{Machine: "test4", Scheduler: "nest", Governor: "schedutil", Workload: "overload/mix-1.5-codel", Scale: 1, Seed: 7},
	}
	for i := 0; i < 4; i++ {
		evs = append(evs, obs.Overload{T: sim.Time(i+1) * ms, Action: "completed", Class: "web", Policy: pol, Sojourn: ms})
	}
	evs = append(evs,
		obs.Overload{T: 5 * ms, Action: "completed", Class: "kv", Policy: pol, Sojourn: ms},
		obs.Overload{T: 5 * ms, Action: "shed_codel", Class: "web", Policy: pol, Sojourn: 3 * ms},
		obs.Overload{T: 5 * ms, Action: "retry", Class: "web", Policy: pol, Attempt: 1},
		obs.Overload{T: 6 * ms, Action: "completed", Class: "web", Policy: pol, Attempt: 1, Sojourn: 2 * ms},
		obs.Overload{T: 6 * ms, Action: "shed_full", Class: "kv", Policy: pol},
		obs.Overload{T: 7 * ms, Action: "timeout_queue", Class: "web", Policy: pol, Sojourn: 10 * ms},
		obs.Overload{T: 8 * ms, Action: "timeout_served", Class: "kv", Policy: pol, Sojourn: 11 * ms},
		obs.RunSummary{Machine: "test4", Scheduler: "nest", Governor: "schedutil", Workload: "overload/mix-1.5-codel", Seed: 7,
			RuntimeNS: int64(100 * ms), EnergyJ: 1.0, WakeP50: 1000, WakeP95: 2000, WakeP99: 3000, WakeP999: 4000, Wakeups: 10},
	)
	return evs
}

// TestReportOverloadSection pins the overload summary: 10 attempts (9
// base + 1 retry), 60% completed, causes listed, per-class rows, and a
// goodput computed against the summary's runtime.
func TestReportOverloadSection(t *testing.T) {
	a := analyze(roundTrip(t, fixtureOverload()))
	var buf bytes.Buffer
	writeReport(&buf, a)
	out := buf.String()
	for _, want := range []string{
		"overload control (10 attempts offered, 1 retries, retry amp 1.11x):",
		"completed 6 (60.0%)  shed 2 (20.0%)  timeout 2 (20.0%)  goodput 60 req/s",
		"causes:  shed_full 1  shed_codel 1  timeout_queue 1  timeout_served 1",
		"class kv       offered 3  completed 1 (33.3%)  shed 1  timeout 1  retries 0",
		"class web      offered 7  completed 5 (71.4%)  shed 1  timeout 1  retries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportOverloadNoSummary: without a run_summary the section still
// renders, with goodput marked unavailable rather than wrong.
func TestReportOverloadNoSummary(t *testing.T) {
	evs := fixtureOverload()
	evs = evs[:len(evs)-1] // drop the RunSummary
	var buf bytes.Buffer
	writeReport(&buf, analyze(roundTrip(t, evs)))
	if !strings.Contains(buf.String(), "goodput n/a (no run_summary in stream)") {
		t.Errorf("missing goodput fallback:\n%s", buf.String())
	}
}

// TestReportOverloadSilentWhenAbsent: a stream with no overload events
// must not render the section at all.
func TestReportOverloadSilentWhenAbsent(t *testing.T) {
	var buf bytes.Buffer
	writeReport(&buf, analyze(roundTrip(t, fixtureNest())))
	if strings.Contains(buf.String(), "overload control") {
		t.Errorf("overload section rendered for a stream without overload events:\n%s", buf.String())
	}
}

// goldenDegenerate pins the empty-run degenerate path: a stream with
// overload activity (one retry) but zero terminal attempts and a
// zero-runtime summary. Every undefined ratio must read "n/a" — a NaN
// or a silently dropped section is a bug.
const goldenDegenerate = `run: demo on test4, nest-schedutil (scale 1, seed 7)
events: 3

core warmth: no gauge samples in stream (run nestsim with -sample-every or -series)

placement paths (0 decisions; layered policies report each layer):
scan cost (cores examined per placement decision):
runtime: 0 migrations, 0 balance pulls

overload control (0 attempts offered, 1 retries, retry amp n/a):
  completed 0 (n/a)  shed 0 (n/a)  timeout 0 (n/a)  goodput n/a (zero runtime in run_summary)

counters (recomputed from the event stream):
  ovl.retry                    1
  ovl.retry.web                1
  runs                         1
  summaries                    1

summary: runtime 0.000000s  energy 0.0J  wake p50/p95/p99/p99.9 0.0µs/0.0µs/0.0µs/0.0µs  (0 wakeups)
`

// TestReportOverloadDegenerate is the empty-run golden: zero offered
// attempts must never print NaN, and the activity that is present (a
// lone retry) must still be visible.
func TestReportOverloadDegenerate(t *testing.T) {
	evs := []obs.Event{
		obs.RunInfo{Machine: "test4", Scheduler: "nest", Governor: "schedutil", Workload: "demo", Scale: 1, Seed: 7},
		obs.Overload{T: sim.Millisecond, Action: "retry", Class: "web", Attempt: 1},
		obs.RunSummary{Machine: "test4", Scheduler: "nest", Governor: "schedutil", Workload: "demo", Seed: 7},
	}
	var buf bytes.Buffer
	writeReport(&buf, analyze(roundTrip(t, evs)))
	got := buf.String()
	if strings.Contains(got, "NaN") {
		t.Errorf("degenerate report contains NaN:\n%s", got)
	}
	if got != goldenDegenerate {
		t.Errorf("degenerate report drifted from golden.\ngot:\n%s\nwant:\n%s\ndiff hint: got %q", got, goldenDegenerate, got)
	}
}

// fixtureFanout is a fan-out serving stream: two stages, five subtask
// completions (one by a hedge), a lost-hedge cancellation, a doomed
// sibling, a stage-deadline timeout and a queue-full shed — every
// attempt terminal in exactly one outcome.
func fixtureFanout() []obs.Event {
	ms := sim.Millisecond
	return []obs.Event{
		obs.RunInfo{Machine: "test4", Scheduler: "nest", Governor: "schedutil", Workload: "fanout/w4", Scale: 1, Seed: 7},
		obs.Fanout{T: 1 * ms, Action: "sub_done", Class: "fan", Stage: 0, Slot: 0, Lat: ms},
		obs.Fanout{T: 1 * ms, Action: "hedge", Class: "fan", Stage: 0, Slot: 1, Attempt: 1},
		obs.Fanout{T: 2 * ms, Action: "sub_done", Class: "fan", Stage: 0, Slot: 1, Attempt: 1, Lat: ms},
		obs.Fanout{T: 2 * ms, Action: "sub_cancel", Class: "fan", Stage: 0, Slot: 1, Cause: "hedge_lost"},
		obs.Fanout{T: 2 * ms, Action: "sub_done", Class: "fan", Stage: 0, Slot: 2, Lat: ms},
		obs.Fanout{T: 2 * ms, Action: "stage_done", Class: "fan", Stage: 0, Width: 3, Lat: 2 * ms, Straggle: ms},
		obs.Fanout{T: 3 * ms, Action: "sub_done", Class: "fan", Stage: 1, Slot: 0, Lat: 2 * ms},
		obs.Fanout{T: 4 * ms, Action: "sub_done", Class: "fan", Stage: 1, Slot: 1, Lat: 2 * ms},
		obs.Fanout{T: 5 * ms, Action: "sub_timeout", Class: "fan", Stage: 1, Slot: 2, Cause: "queue"},
		obs.Fanout{T: 5 * ms, Action: "sub_shed", Class: "fan", Stage: 1, Slot: 2, Attempt: 1},
		obs.Fanout{T: 5 * ms, Action: "sub_cancel", Class: "fan", Stage: 1, Slot: 2, Cause: "doomed"},
		obs.Fanout{T: 6 * ms, Action: "stage_done", Class: "fan", Stage: 1, Width: 3, Lat: 4 * ms, Straggle: 2 * ms},
		obs.RunSummary{Machine: "test4", Scheduler: "nest", Governor: "schedutil", Workload: "fanout/w4", Seed: 7,
			RuntimeNS: int64(100 * ms), EnergyJ: 1.0, Wakeups: 10},
	}
}

// TestReportFanoutSection pins the fan-out summary: the terminal
// breakdown sums to the attempt count, causes are listed, and each
// stage row carries its completion count and straggle share.
func TestReportFanoutSection(t *testing.T) {
	a := analyze(roundTrip(t, fixtureFanout()))
	var buf bytes.Buffer
	writeReport(&buf, a)
	out := buf.String()
	for _, want := range []string{
		"fan-out (9 subtask attempts, 1 hedges, 1 hedge wins, 2 stages satisfied):",
		"done 5 (55.6%)  cancelled 2 (22.2%)  timeout 1 (11.1%)  shed 1 (11.1%)",
		"cancel causes:  hedge_lost 1  doomed 1",
		"stage 0: 3 done  sub p50/p95/p99 ",
		"straggle mean 1000.0µs (50.0% of stage time)",
		"stage 1: 2 done  sub p50/p95/p99 ",
		"straggle mean 2000.0µs (50.0% of stage time)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportFanoutSilentWhenAbsent: closed-loop and plain overload
// streams must not grow a fan-out section.
func TestReportFanoutSilentWhenAbsent(t *testing.T) {
	for name, evs := range map[string][]obs.Event{
		"nest":     fixtureNest(),
		"overload": fixtureOverload(),
	} {
		var buf bytes.Buffer
		writeReport(&buf, analyze(roundTrip(t, evs)))
		if strings.Contains(buf.String(), "fan-out") {
			t.Errorf("%s: fan-out section rendered for a stream without fanout events:\n%s", name, buf.String())
		}
	}
}

// TestReportDeterministic re-runs the same analysis twice and compares
// bytes, guarding the map-iteration hazards (counters, grid rows).
func TestReportDeterministic(t *testing.T) {
	evs := roundTrip(t, fixtureNest())
	var first string
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		writeReport(&buf, analyze(evs))
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("iteration %d produced different report bytes", i)
		}
	}
}

// TestReportEmptyStream keeps the degenerate paths alive: no events at
// all, and a stream with only decisions (no gauges).
func TestReportEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	writeReport(&buf, analyze(nil))
	out := buf.String()
	if !strings.Contains(out, "no run header") {
		t.Errorf("empty report missing no-header notice:\n%s", out)
	}
	if !strings.Contains(out, "no gauge samples") {
		t.Errorf("empty report missing gauge hint:\n%s", out)
	}

	buf.Reset()
	evs := []obs.Event{
		obs.RunInfo{Machine: "m", Scheduler: "cfs", Governor: "schedutil", Workload: "w", Scale: 1, Seed: 1},
		obs.PlacementDecision{T: sim.Millisecond, Sched: "cfs", Task: 1, Core: 0, Path: "prev", Scanned: 1},
	}
	writeReport(&buf, analyze(evs))
	if !strings.Contains(buf.String(), "cfs.prev") {
		t.Errorf("decision-only report missing counters:\n%s", buf.String())
	}
}

// TestDiffMissingSummary: diff of streams without run_summary events
// degrades to counters only.
func TestDiffMissingSummary(t *testing.T) {
	evs := []obs.Event{
		obs.PlacementDecision{T: sim.Millisecond, Sched: "cfs", Task: 1, Core: 0, Path: "prev", Scanned: 1},
	}
	var buf bytes.Buffer
	writeDiff(&buf, "a.jsonl", "b.jsonl", analyze(evs), analyze(nil))
	out := buf.String()
	if !strings.Contains(out, "summary deltas: n/a") {
		t.Errorf("missing-summary notice absent:\n%s", out)
	}
	if !strings.Contains(out, "cfs.prev\t") && !strings.Contains(out, "cfs.prev") {
		t.Errorf("counter table absent:\n%s", out)
	}
}
