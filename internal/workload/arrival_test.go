package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// measureRate drives a source for n arrivals and returns the empirical
// rate in requests per second.
func measureRate(t *testing.T, src ArrivalSource, n int) float64 {
	t.Helper()
	r := sim.NewRand(42)
	var total sim.Duration
	for i := 0; i < n; i++ {
		gap, _, ok := src.Next(r)
		if !ok {
			t.Fatal("source exhausted early")
		}
		if gap < 0 {
			t.Fatal("negative gap")
		}
		total += gap
	}
	return float64(n) / total.Seconds()
}

func TestSourcesMatchMeanRate(t *testing.T) {
	// Every process averages 50000/s: the MMPP's (125000×4ms +
	// 25000×12ms)/16ms, the diurnal curve's (peak+trough)/2.
	const want = 50000.0
	for _, sp := range []ArrivalSpec{
		{Kind: ArrPoisson, Rate: 50000},
		{Kind: ArrMMPP, Hi: 125000, Lo: 25000, On: 4 * msec, Off: 12 * msec},
		{Kind: ArrDiurnal, Peak: 90000, Trough: 10000, Period: 50 * msec},
	} {
		src, err := sp.Source()
		if err != nil {
			t.Fatal(err)
		}
		if got := measureRate(t, src, 50000); math.Abs(got-want)/want > 0.1 {
			t.Errorf("%+v: empirical rate %.0f/s, want %.0f/s ±10%%", sp, got, want)
		}
	}
}

func TestMMPPBurstiness(t *testing.T) {
	// An on/off process at the same mean as a Poisson process must show a
	// higher coefficient of variation of interarrival gaps.
	cv := func(sp ArrivalSpec) float64 {
		src, err := sp.Source()
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRand(9)
		var sum, sumSq float64
		const n = 40000
		for i := 0; i < n; i++ {
			gap, _, _ := src.Next(r)
			g := float64(gap)
			sum += g
			sumSq += g * g
		}
		mean := sum / n
		return math.Sqrt(sumSq/n-mean*mean) / mean
	}
	pois := cv(ArrivalSpec{Kind: ArrPoisson, Rate: 50000})
	mmpp := cv(ArrivalSpec{Kind: ArrMMPP, Hi: 250000, Lo: 5000, On: 2 * msec, Off: 8 * msec})
	if mmpp <= pois*1.2 {
		t.Errorf("MMPP cv %.2f not clearly burstier than Poisson cv %.2f", mmpp, pois)
	}
}

func TestTraceRoundTripAndReplay(t *testing.T) {
	entries := []TraceEntry{
		{T: 0, Class: "web"},
		{T: 1500, Class: "kv"},
		{T: 1500}, // simultaneous, classless
		{T: 2 * sim.Time(sim.Millisecond), Class: "script"},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, entries); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	if strings.Contains(wire, " ") || !strings.HasSuffix(wire, "\n") {
		t.Errorf("trace wire form not compact JSONL: %q", wire)
	}
	loaded, err := LoadTrace(strings.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, entries) {
		t.Fatalf("trace round trip changed entries: %+v", loaded)
	}
	sp := ArrivalSpec{Kind: ArrTrace, Trace: loaded}
	src, err := sp.Source()
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	for i, want := range entries {
		gap, class, ok := src.Next(nil)
		if !ok {
			t.Fatalf("entry %d: source exhausted", i)
		}
		now += sim.Time(gap)
		if now != want.T || class != want.Class {
			t.Errorf("entry %d: replayed (t=%d, %q), want (t=%d, %q)", i, now, class, want.T, want.Class)
		}
	}
	if _, _, ok := src.Next(nil); ok {
		t.Error("finite trace did not exhaust")
	}
}

func TestLoadTraceRejectsBadInput(t *testing.T) {
	for name, wire := range map[string]string{
		"not json":   "{\"t_ns\": }\n",
		"regressing": "{\"t_ns\":100}\n{\"t_ns\":50}\n",
		"negative":   "{\"t_ns\":-1}\n",
		"empty":      "\n",
	} {
		if _, err := LoadTrace(strings.NewReader(wire)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
