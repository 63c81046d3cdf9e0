package metrics

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestHistBuckets(t *testing.T) {
	h := NewHist([]machine.FreqMHz{1000, 2000, 3000})
	h.Add(500, 10)  // (0,1.0]
	h.Add(1000, 10) // (0,1.0] (inclusive upper edge)
	h.Add(1500, 20) // (1.0,2.0]
	h.Add(2500, 30) // (2.0,3.0]
	h.Add(9999, 5)  // clamps to last bucket
	if h.Weight[0] != 20 || h.Weight[1] != 20 || h.Weight[2] != 35 {
		t.Fatalf("weights = %v", h.Weight)
	}
	if h.Total() != 75 {
		t.Fatalf("total = %v", h.Total())
	}
	if got := h.Share(2); math.Abs(got-35.0/75) > 1e-12 {
		t.Fatalf("share = %v", got)
	}
}

func TestHistLabels(t *testing.T) {
	h := NewHist([]machine.FreqMHz{1000, 1600, 2300})
	if got := h.BucketLabel(0); got != "(0.0,1.0] GHz" {
		t.Fatalf("label 0 = %q", got)
	}
	if got := h.BucketLabel(2); got != "(1.6,2.3] GHz" {
		t.Fatalf("label 2 = %q", got)
	}
}

func TestHistMerge(t *testing.T) {
	a := NewHist([]machine.FreqMHz{1000, 2000})
	b := NewHist([]machine.FreqMHz{1000, 2000})
	a.Add(500, 5)
	b.Add(1500, 7)
	a.Merge(b)
	if a.Weight[0] != 5 || a.Weight[1] != 7 {
		t.Fatalf("merged = %v", a.Weight)
	}
}

func TestEdgesForPaperMachines(t *testing.T) {
	for _, spec := range machine.PaperMachines() {
		edges := EdgesFor(spec)
		if len(edges) < 4 {
			t.Fatalf("%s: too few edges %v", spec.Topo.Name(), edges)
		}
		for i := 1; i < len(edges); i++ {
			if edges[i] <= edges[i-1] {
				t.Fatalf("%s: edges not strictly increasing: %v", spec.Topo.Name(), edges)
			}
		}
		if edges[len(edges)-1] != spec.MaxTurbo() {
			t.Fatalf("%s: last edge %v != max turbo %v", spec.Topo.Name(), edges[len(edges)-1], spec.MaxTurbo())
		}
	}
	// The 5218's edges must match the Figure 6 caption.
	e := EdgesFor(machine.IntelXeon5218())
	want := []machine.FreqMHz{1000, 1600, 2300, 2800, 3100, 3600, 3900}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("5218 edges = %v, want %v", e, want)
		}
	}
}

func TestEdgesForGenericFallback(t *testing.T) {
	spec := machine.AMDRyzen4650G()
	edges := EdgesFor(spec)
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("generic edges not increasing: %v", edges)
		}
	}
	if edges[0] != spec.Min {
		t.Fatalf("generic edges miss machine min: %v", edges)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var l LatHist
	for i := 1; i <= 1000; i++ {
		l.Add(sim.Duration(i))
	}
	if got := l.Percentile(50); got < 495 || got > 505 {
		t.Fatalf("p50 = %v", got)
	}
	if got := l.Percentile(99.9); got < 995 {
		t.Fatalf("p99.9 = %v", got)
	}
	if got := l.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	var empty LatHist
	if empty.Percentile(99) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if s := Stddev(xs); math.Abs(s-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s)
	}
	if Mean(nil) != 0 || Stddev(nil) != 0 || Stddev([]float64{1}) != 0 {
		t.Fatal("degenerate inputs not handled")
	}
}

func TestSpeedupConventions(t *testing.T) {
	// Paper: 0 = identical, >0 = improvement.
	if s := Speedup(10, 10); s != 0 {
		t.Fatalf("identical speedup = %v", s)
	}
	if s := Speedup(10, 5); math.Abs(s-1.0) > 1e-12 {
		t.Fatalf("2x faster = %v, want 1.0", s)
	}
	if s := Speedup(10, 20); math.Abs(s+0.5) > 1e-12 {
		t.Fatalf("2x slower = %v, want -0.5", s)
	}
	if s := SpeedupHigherBetter(100, 125); math.Abs(s-0.25) > 1e-12 {
		t.Fatalf("throughput +25%% = %v", s)
	}
}

func TestSpeedupProperty(t *testing.T) {
	f := func(b, v uint16) bool {
		base, val := float64(b)+1, float64(v)+1
		s := Speedup(base, val)
		// Inverting the relation recovers the value (relative tolerance:
		// the round trip loses a few ulps).
		return math.Abs(base/(1+s)-val) < 1e-9*val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResultCustom(t *testing.T) {
	var r Result
	r.SetCustom("ops", 123)
	if r.Custom["ops"] != 123 {
		t.Fatal("custom metric not stored")
	}
}

func TestLatencyJSONRoundTrip(t *testing.T) {
	var l LatHist
	for _, d := range []sim.Duration{30, 10, 20, 10} {
		l.Add(d)
	}
	b, err := json.Marshal(&l)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"max":30,"buckets":[[10,2],[20,1],[30,1]]}` {
		t.Errorf("marshal = %s, want max plus ascending buckets", b)
	}
	var back LatHist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 4 || back.Percentile(100) != 30 || back.Percentile(0) != 10 {
		t.Errorf("round trip: count=%d p100=%d p0=%d", back.Count(), back.Percentile(100), back.Percentile(0))
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b2) != string(b) {
		t.Errorf("re-encode differs: %s vs %s", b2, b)
	}
}

func TestLatencyJSONEmpty(t *testing.T) {
	// An empty histogram encodes as {}, by value or by pointer.
	var l LatHist
	for _, v := range []any{l, &l} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != "{}" {
			t.Errorf("empty latency marshals as %s, want {}", b)
		}
	}
	var back LatHist
	back.Add(5)
	if err := json.Unmarshal([]byte("{}"), &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 0 || back.Max() != 0 {
		t.Errorf("empty round trip has %d samples, max %d", back.Count(), back.Max())
	}
}
