package experiments

import (
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
	"fig2": "0e8fdef3770a3d24a838fec32694eacbbe5a01e4d11f079e1e3535948b866d44",
	"fig3": "46a3ca45ae52129b4b5c5ebced8fac98bb62ae5dc5ff9dd078fb7a3734619eb9",
	"fig8": "d9424a116815557793ebdaf6d6d35b7f943b1a6529bfcdd3f2bcc5e5c154f437",
	"fig9": "3ddc85a869c0ee4802687e874bb02d7147a46e01f70edba7fb5e9f66869dd66a",
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
		if got, want := sha(b.String()), "3dded59509d820014903df91a50f34191975413acc5107c0c5d796e66b037628"; got != want {
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
		if got, want := sha(b.String()), "e702cea508ef708d4ec79da8a83152cf1d66231ace975c892a569e6984ee0732"; got != want {
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
		if got, want := sha(b.String()), "e4a5067659283778c9adb9607ab1bd9ff2b56c93d3e5478aa8f4828093167406"; got != want {
			t.Errorf("timeseries sha256 %s, pinned %s", got, want)
		}
	})
}
