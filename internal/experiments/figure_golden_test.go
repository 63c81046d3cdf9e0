package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/svgplot"
)

// figureGoldens pins the rendered text of the per-tick trace figures at
// default Options. The traces are derived from sampled per-tick state,
// so any change to how that state is captured that moves a glyph, a
// core row or a note fails here.
var figureGoldens = map[string]string{
	"fig2": "4e097d8e323f422ac3e6034376cdde5a9c9edbbfc48ac7b183220787db66137c",
	"fig3": "d6e94b521fa4018d3b0bf10a8d614e9f26da8763dd2957341c2c1fd984217008",
	"fig8": "975dde4c886070eee72b47ae39da1e83ae6a5e05f11fa26497b200a66c1f173f",
	"fig9": "4568e4b3e9cd0eb7b9c592aa9321fe59d5e2b26df90c3597977f91b57144c9cc",
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestFigureGoldens renders fig2, fig3, fig8 and fig9 and compares their
// SHA-256 against the pinned values.
func TestFigureGoldens(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "fig8", "fig9"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var b strings.Builder
		rep.Render(&b)
		if got := sha(b.String()); got != figureGoldens[id] {
			t.Errorf("%s: rendered text sha256 %s, pinned %s", id, got, figureGoldens[id])
		}
	}
}

// TestTraceFigureEvents: a trace figure's runs reach Options.Obs like
// every measured cell's (one "run" line per traced configuration),
// and the shared hub leaves the rendered figure unchanged.
func TestTraceFigureEvents(t *testing.T) {
	e, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := obs.NewJSONL(&buf)
	rep, err := e.Run(Options{Obs: obs.New(rec)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `{"ev":"run",`); n != 2 {
		t.Errorf("%d run lines in the event stream, want 2", n)
	}
	var b strings.Builder
	rep.Render(&b)
	if got := sha(b.String()); got != figureGoldens["fig3"] {
		t.Errorf("fig3 with a shared hub: rendered text sha256 %s, pinned %s", got, figureGoldens["fig3"])
	}
}

// TestSVGGoldens pins the three per-tick SVG renderings, each for one
// fixed run: a CFS h2 heatmap across a hotplug window and a socket
// throttle, an underload series and a nest h2 machine time series.
func TestSVGGoldens(t *testing.T) {
	t.Run("heatmap", func(t *testing.T) {
		spec := machine.IntelXeon6130(2)
		tr := obs.NewTrace(0, 200*sim.Millisecond)
		if _, err := Run(RunSpec{
			Machine: "6130-2", Scheduler: "cfs", Governor: "schedutil",
			Workload: "dacapo/h2", Scale: 0.04, Seed: 5,
			Obs: obs.New(tr), SampleEvery: sim.Tick,
			Faults: "off:c2@40ms+80ms,throttle:s1@20ms+60ms=1.8GHz",
		}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		svgplot.Heatmap(&b, "heatmap", tr, metrics.EdgesFor(spec))
		if got, want := sha(b.String()), "5141b7017b8c4f51d01e9f99884771f366d04c2ce5ecfd16655a7c482aaeb507"; got != want {
			t.Errorf("heatmap sha256 %s, pinned %s", got, want)
		}
	})
	t.Run("underload", func(t *testing.T) {
		tr := obs.NewTrace(0, 300*sim.Millisecond)
		if _, err := Run(RunSpec{
			Machine: "5218", Scheduler: "cfs", Governor: "schedutil",
			Workload: "configure/llvm_ninja", Scale: 0.04, Seed: 2,
			Obs: obs.New(tr), SampleEvery: sim.Tick,
		}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		svgplot.UnderloadSeries(&b, "underload", tr.UnderloadSeries)
		if got, want := sha(b.String()), "d5aa0efc197a777e305afc9f657a44f35a0d4decbffd3b6f4fba6e2b15f88a5b"; got != want {
			t.Errorf("underload sha256 %s, pinned %s", got, want)
		}
	})
	t.Run("timeseries", func(t *testing.T) {
		spec := machine.IntelXeon6130(4)
		var buf obs.SeriesBuffer
		if _, err := Run(RunSpec{
			Machine: "6130-4", Scheduler: "nest", Governor: "schedutil",
			Workload: "dacapo/h2", Scale: 0.04, Seed: 1,
			Obs: obs.New(&buf), SampleEvery: sim.Tick,
		}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		svgplot.TimeSeries(&b, "timeseries", buf.Cores, float64(spec.MaxTurbo()))
		if got, want := sha(b.String()), "5b0595b548e8d9c10c90965ce5fccd3af082ff5ab2842cdb118014fcfdccf098"; got != want {
			t.Errorf("timeseries sha256 %s, pinned %s", got, want)
		}
	})
}
