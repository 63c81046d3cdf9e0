package textplot

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestCoreTraceRendersRows(t *testing.T) {
	tr := obs.NewTrace(0, 40*sim.Millisecond)
	tr.Record(&obs.CoreGauge{T: 0, Core: 3, State: "busy", FreqMHz: 1000})
	tr.Record(&obs.CoreGauge{T: 4 * sim.Millisecond, Core: 3, State: "busy", FreqMHz: 3900})
	tr.Record(&obs.CoreGauge{T: 8 * sim.Millisecond, Core: 7, State: "busy", FreqMHz: 2500})
	edges := []machine.FreqMHz{1000, 1600, 2300, 2800, 3100, 3600, 3900}
	var b strings.Builder
	CoreTrace(&b, tr, edges)
	out := b.String()
	if !strings.Contains(out, "core   3") || !strings.Contains(out, "core   7") {
		t.Fatalf("missing core rows:\n%s", out)
	}
	// Core 7 printed above core 3 (highest on top).
	if strings.Index(out, "core   7") > strings.Index(out, "core   3") {
		t.Fatal("core rows not in descending order")
	}
	if !strings.Contains(out, "glyphs") {
		t.Fatal("legend missing")
	}
}

func TestCoreTraceEmpty(t *testing.T) {
	var b strings.Builder
	CoreTrace(&b, nil, nil)
	if !strings.Contains(b.String(), "no trace points") {
		t.Fatal("empty trace not handled")
	}
}

func TestGlyphMonotone(t *testing.T) {
	n := 7
	prev := -1
	for i := 0; i < n; i++ {
		g := Glyph(i, n)
		idx := strings.IndexByte(".:-=+*#@", g)
		if idx < prev {
			t.Fatalf("glyphs not monotone at bucket %d", i)
		}
		prev = idx
	}
	if Glyph(0, 0) != '?' {
		t.Fatal("degenerate bucket count not handled")
	}
}

func TestUnderloadSeries(t *testing.T) {
	var b strings.Builder
	UnderloadSeries(&b, "test", []int{0, 1, 3, 2, 0, 0, 5}, 7)
	out := b.String()
	if !strings.Contains(out, "#") {
		t.Fatal("no bars rendered")
	}
	if !strings.Contains(out, " 5 |") {
		t.Fatalf("peak level missing:\n%s", out)
	}
	var e strings.Builder
	UnderloadSeries(&e, "x", nil, 10)
	if !strings.Contains(e.String(), "empty") {
		t.Fatal("empty series not handled")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.10, 100, 20); got != ">>>>>>>>>>" {
		t.Fatalf("positive bar = %q", got)
	}
	if got := Bar(-0.05, 100, 20); got != "<<<<<" {
		t.Fatalf("negative bar = %q", got)
	}
	if got := Bar(2, 100, 8); len(got) != 8 {
		t.Fatalf("bar not clamped: %q", got)
	}
}
