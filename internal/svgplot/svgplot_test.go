package svgplot

import (
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// wellFormed checks the output parses as XML and contains the expected
// element kinds.
func wellFormed(t *testing.T, out string, wantElems ...string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("not well-formed XML: %v\n%s", err, out)
		}
	}
	for _, e := range wantElems {
		if !strings.Contains(out, "<"+e) {
			t.Fatalf("missing <%s> element", e)
		}
	}
}

func sampleTrace() *obs.Trace {
	tr := obs.NewTrace(0, 40*sim.Millisecond)
	tr.Record(&obs.CoreGauge{T: 0, Core: 3, State: "busy", FreqMHz: 1000})
	tr.Record(&obs.CoreGauge{T: 4 * sim.Millisecond, Core: 3, State: "busy", FreqMHz: 3900})
	tr.Record(&obs.CoreGauge{T: 8 * sim.Millisecond, Core: 7, State: "busy", FreqMHz: 2500})
	return tr
}

var testEdges = []machine.FreqMHz{1000, 1600, 2300, 2800, 3100, 3600, 3900}

func TestHeatmap(t *testing.T) {
	var b strings.Builder
	Heatmap(&b, "t <&>", sampleTrace(), testEdges)
	wellFormed(t, b.String(), "svg", "rect", "text")
	if !strings.Contains(b.String(), "core 7") {
		t.Fatal("core label missing")
	}
	if !strings.Contains(b.String(), "&lt;&amp;&gt;") {
		t.Fatal("title not escaped")
	}
}

func TestHeatmapEmpty(t *testing.T) {
	var b strings.Builder
	Heatmap(&b, "x", obs.NewTrace(0, sim.Millisecond), testEdges)
	wellFormed(t, b.String(), "svg")
}

func TestUnderloadSeries(t *testing.T) {
	var b strings.Builder
	UnderloadSeries(&b, "u", []int{0, 2, 5, 1, 0})
	wellFormed(t, b.String(), "svg", "rect", "line")
}

func TestBars(t *testing.T) {
	var b strings.Builder
	Bars(&b, "speedups", []string{"a", "b"}, []BarGroup{
		{Label: "w1", Values: []float64{12, -3}},
		{Label: "w2", Values: []float64{40, 8}},
	})
	out := b.String()
	wellFormed(t, out, "svg", "rect", "line", "text")
	// Negative bars must render below the zero line (a second rect form).
	if strings.Count(out, "<rect") < 5 {
		t.Fatalf("too few bars rendered:\n%s", out)
	}
}

func TestTimeSeries(t *testing.T) {
	var cores []obs.CoreGauge
	for i := 0; i < 20; i++ {
		for c := 0; c < 8; c++ {
			state := "idle"
			if c < i%7 {
				state = "busy"
			}
			cores = append(cores, obs.CoreGauge{
				T: sim.Time(i) * sim.Tick, Core: c, State: state, FreqMHz: 2000 + 50*i,
			})
		}
	}
	var b strings.Builder
	TimeSeries(&b, "ts", cores, 3900)
	out := b.String()
	wellFormed(t, out, "svg", "polyline")
	if !strings.Contains(out, "busy cores (max 6)") {
		t.Fatalf("busy-core peak missing:\n%s", out)
	}
	// 20 instants, one point each, in both panels.
	if got := strings.Count(out, ","); got != 40 {
		t.Fatalf("%d points plotted, want 40", got)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	var b strings.Builder
	TimeSeries(&b, "ts", nil, 3900)
	wellFormed(t, b.String(), "svg")
}
