package experiments

import (
	"math"
	"testing"
)

func TestBandContains(t *testing.T) {
	closed := Band{Lo: -0.05, Hi: 0.05}
	open := Band{Lo: 0, Hi: math.Inf(1), Strict: true}
	for _, c := range []struct {
		b    Band
		v    float64
		want bool
	}{
		{closed, -0.05, true}, {closed, 0.05, true}, {closed, 0.0501, false}, {closed, math.NaN(), false},
		{open, 0, false}, {open, 1e-12, true}, {open, math.Inf(1), false}, {open, math.NaN(), false},
	} {
		if got := c.b.Contains(c.v); got != c.want {
			t.Errorf("%s contains %v = %v, want %v", c.b, c.v, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median %v", m)
	}
}

// TestClaimsUniqueAndComplete: every row has a unique ID, a preset for
// each machine it names and a band with Lo <= Hi.
func TestClaimsUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if seen[c.ID] {
			t.Errorf("duplicate claim %q", c.ID)
		}
		seen[c.ID] = true
		if (c.Alt != "") != (c.Metric == SpeedupGap) {
			t.Errorf("%s: Alt %q with metric %s", c.ID, c.Alt, c.Metric)
		}
		if c.Band.Lo > c.Band.Hi || c.Section == "" || c.Base == "" {
			t.Errorf("%s: incomplete row %+v", c.ID, c)
		}
	}
}

// TestEvalClaimsWorkersIdentical: the matrix does not depend on the
// grid's worker count, and a configuration two rows share runs once.
func TestEvalClaimsWorkersIdentical(t *testing.T) {
	var rows []Claim
	for _, c := range Claims() {
		if c.Workload == "configure/llvm_ninja" && (c.ID == "configure-nest" || c.ID == "configure-cfs-underload") {
			c.Scale = 0.01
			rows = append(rows, c)
		}
	}
	seeds := []uint64{1, 3}
	a, err := EvalClaims(rows, seeds, PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats := &GridStats{}
	b, err := EvalClaims(rows, seeds, PoolOptions{Workers: 2, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if int(stats.Completed.Load()) != len(seeds)*2*ClaimRepeats {
		t.Errorf("ran %d cells, want %d (the shared CFS cell once per seed)", stats.Completed.Load(), len(seeds)*2*ClaimRepeats)
	}
	for i := range a {
		for j := range a[i].Values {
			if math.Float64bits(a[i].Values[j]) != math.Float64bits(b[i].Values[j]) {
				t.Errorf("%s seed %d: %v serial, %v parallel", a[i].ID, seeds[j], a[i].Values[j], b[i].Values[j])
			}
		}
	}
}
