package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCountersRoundTrip runs a small workload end to end under Nest and
// CFS with an observability hub attached and checks that the policy-level
// counters surface in the result's RunStats.
func TestCountersRoundTrip(t *testing.T) {
	base := RunSpec{
		Machine:  "5218",
		Governor: "schedutil",
		Workload: "configure/llvm_ninja",
		Scale:    0.01,
		Seed:     1,
	}

	t.Run("nest", func(t *testing.T) {
		rs := base
		rs.Scheduler = "nest"
		rs.Obs = obs.New()
		res, err := Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats == nil {
			t.Fatal("no RunStats with a hub attached")
		}
		if n := res.Stats.Counter("nest.expand"); n <= 0 {
			t.Fatalf("nest.expand = %d, want > 0 (counters: %v)", n, res.Stats.Counters)
		}
		if res.Stats.Counter("runs") != 1 {
			t.Fatalf("runs = %d, want 1", res.Stats.Counter("runs"))
		}
		if res.Stats.Events <= 0 {
			t.Fatalf("events = %d, want > 0", res.Stats.Events)
		}
	})

	t.Run("cfs", func(t *testing.T) {
		rs := base
		rs.Scheduler = "cfs"
		rs.Obs = obs.New()
		res, err := Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Stats.Counter("cfs.idlest_group"); n <= 0 {
			t.Fatalf("cfs.idlest_group = %d, want > 0 (counters: %v)", n, res.Stats.Counters)
		}
	})

	t.Run("no-hub", func(t *testing.T) {
		rs := base
		rs.Scheduler = "nest"
		res, err := Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != nil {
			t.Fatal("RunStats present without a hub")
		}
	})
}

// TestRunRepeatsFirstRunOnlyObservers checks that repeats do not mix
// several seeds' events into one hub.
func TestRunRepeatsFirstRunOnlyObservers(t *testing.T) {
	hub := obs.New()
	rs := RunSpec{
		Machine: "5218", Scheduler: "nest", Governor: "schedutil",
		Workload: "configure/llvm_ninja", Scale: 0.01, Seed: 1, Obs: hub,
	}
	results, err := RunRepeats(rs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := hub.Snapshot()["runs"]; got != 1 {
		t.Fatalf("hub saw %d runs, want only the first", got)
	}
	if results[0].Stats == nil {
		t.Fatal("first run lost its stats")
	}
	for i, r := range results[1:] {
		if r.Stats != nil {
			t.Fatalf("repeat %d carries stats; observers should be first-run only", i+1)
		}
	}
}

// TestServingGridEvents: the overload, fan-out and resilience grids give
// every cell its own hub, and Options.Obs still gets each cell's first
// run (one "run" line per table row) without changing the report.
func TestServingGridEvents(t *testing.T) {
	for _, id := range []string{"overload", "fanout", "resilience"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Runs: 1, Scale: 0.005}
			plain, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			rec := obs.NewJSONL(&buf)
			opt.Obs = obs.New(rec)
			observed, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			cells := 0
			for _, s := range observed.Sections {
				cells += len(s.Rows)
			}
			if n := strings.Count(buf.String(), `{"ev":"run",`); n != cells || n == 0 {
				t.Errorf("%d run lines in the event stream, want one per cell (%d)", n, cells)
			}
			var a, b strings.Builder
			plain.Render(&a)
			observed.Render(&b)
			if a.String() != b.String() {
				t.Errorf("report changed when Options.Obs was set:\n%s\nvs\n%s", a.String(), b.String())
			}
		})
	}
}
