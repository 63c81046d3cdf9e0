package workload

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestOverloadConservation holds the pool to the attempt lifecycle
// contract: every delivered attempt terminates in exactly one of
// completed, timed out or shed, so the counters add up under every
// policy and load factor.
func TestOverloadConservation(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	for _, pol := range OverloadPolicies {
		for _, f := range OverloadFactors {
			name := OverloadMixName(f, pol)
			res := runOn(t, name, spec, 0.05)
			offered := res.Custom["ovl_offered"]
			sum := res.Custom["ovl_completed"] + res.Custom["ovl_timeout"] + res.Custom["ovl_shed"]
			if offered == 0 || offered != sum {
				t.Errorf("%s: offered %g != completed+timeout+shed %g", name, offered, sum)
			}
			if res.Custom["truncated"] != 0 {
				t.Errorf("%s: run truncated", name)
			}
			// Retry amplification is bounded by 1 + maxRetries.
			if amp := res.Custom["ovl_amp"]; amp < 1 || amp > 3 {
				t.Errorf("%s: retry amplification %g outside [1, 3]", name, amp)
			}
		}
	}
}

// TestCodelBeatsNoAdmission is the graceful-degradation headline: past
// saturation, CoDel-style sojourn shedding must deliver strictly more
// goodput (deadline-met completions per second) than no admission
// control, where the queue holds every request just long enough to miss
// its deadline and client retries amplify the load.
func TestCodelBeatsNoAdmission(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	for _, f := range []float64{1.5, 2.0} {
		none := runOn(t, OverloadMixName(f, "none"), spec, 0.2)
		codel := runOn(t, OverloadMixName(f, "codel"), spec, 0.2)
		gNone, gCodel := none.Custom["ovl_goodput"], codel.Custom["ovl_goodput"]
		if gCodel <= gNone {
			t.Errorf("factor %g: codel goodput %.0f not above none %.0f", f, gCodel, gNone)
		}
		// The collapse mechanism: under "none" most of the offered load
		// times out; under codel timeouts are rare because shedding keeps
		// the queue short.
		if none.Custom["ovl_timeout"] <= codel.Custom["ovl_timeout"] {
			t.Errorf("factor %g: none timeouts %g not above codel %g",
				f, none.Custom["ovl_timeout"], codel.Custom["ovl_timeout"])
		}
	}
}

// TestPriorityShedding checks graceful degradation order under the
// graded queue cap: the "script" class must shed a larger fraction of
// its attempts than "kv", which in turn sheds more than "web".
func TestPriorityShedding(t *testing.T) {
	m := cpu.New(cpu.Config{Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 7})
	prof := referenceOverload(2.0, "cap")
	ol := installOpenLoopPool(m, prof, 3000)
	if res := m.Run(0); res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	frac := make([]float64, len(ol.byClass))
	for i, st := range ol.byClass {
		if st.offered == 0 {
			t.Fatalf("class %d saw no attempts", i)
		}
		frac[i] = float64(st.shed) / float64(st.offered)
	}
	// Classes are ordered web, kv, script (priority 0, 1, 2).
	if !(frac[2] > frac[1] && frac[1] > frac[0]) {
		t.Errorf("shed fractions not graded by priority: web %.3f, kv %.3f, script %.3f",
			frac[0], frac[1], frac[2])
	}
}

// TestOverloadReplayByteIdentical reruns the bursty retrying cell with
// the same seed and demands byte-identical encoded results: MMPP phase
// dwells, backoff jitter and shedding decisions must all come off the
// seeded RNGs, never host state.
func TestOverloadReplayByteIdentical(t *testing.T) {
	stamp := func() []byte {
		res := runOn(t, OverloadMixName(1.5, "codel"), machine.IntelXeon6130(2), 0.05)
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := stamp(), stamp()
	if string(a) != string(b) {
		t.Errorf("same-seed replays diverged:\n%s\n%s", a, b)
	}
}

// TestOverloadSchedulersShareArrivals checks the pump/scheduler split:
// the base arrival process is drawn from its own seeded RNG, so two
// different schedulers at the same seed must face the same offered base
// load (offered minus retries), even though retries and outcomes then
// legitimately diverge.
func TestOverloadSchedulersShareArrivals(t *testing.T) {
	base := func(scheduler string) float64 {
		w, err := ByName(OverloadMixName(2, "token"))
		if err != nil {
			t.Fatal(err)
		}
		var pol sched.Policy = cfs.Default()
		if scheduler == "nest" {
			pol = nest.Default()
		}
		m := cpu.New(cpu.Config{Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{}, Policy: pol, Seed: 11})
		w.Install(m, 0.05)
		res := m.Run(0)
		return res.Custom["ovl_offered"] - res.Custom["ovl_retries"]
	}
	if c, n := base("cfs"), base("nest"); c != n {
		t.Errorf("base arrivals differ across schedulers: cfs %g, nest %g", c, n)
	}
}

// TestQueueDepthShedsWhenFull bounds the queue: a tiny queue depth on a
// saturating profile must shed at the full queue and record the high
// watermark at the bound.
func TestQueueDepthShedsWhenFull(t *testing.T) {
	m := cpu.New(cpu.Config{Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 7})
	prof := referenceOverload(2.0, "none")
	prof.queueDepth = 32
	prof.retries = 0
	ol := installOpenLoopPool(m, prof, 2000)
	if res := m.Run(0); res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	if ol.shedFull == 0 {
		t.Error("full queue never shed")
	}
	if hwm := ol.ch.HighWater; hwm != 32 {
		t.Errorf("queue high watermark %d, want the bound 32", hwm)
	}
}

func TestRegisterTraceWorkload(t *testing.T) {
	entries := make([]TraceEntry, 400)
	for i := range entries {
		entries[i] = TraceEntry{T: sim.Time(i) * 50_000} // one every 50us
	}
	name := "trace/test-steady"
	if err := RegisterTraceWorkload(name, entries, "codel"); err != nil {
		t.Fatal(err)
	}
	if err := RegisterTraceWorkload(name, entries, "codel"); err == nil {
		t.Error("duplicate registration accepted")
	}
	res := runOn(t, name, machine.IntelXeon6130(2), 1)
	if res.Custom["truncated"] != 0 {
		t.Error("trace run truncated")
	}
	if got := res.Custom["ovl_offered"] - res.Custom["ovl_retries"]; got != 400 {
		t.Errorf("base arrivals %g, want the full trace (400)", got)
	}
}

// TestRegisterTraceWorkloadRejects: an empty trace, a regressing one and
// a bad admission spec are registration errors, not panics inside the
// first cell, and none leaves a workload behind.
func TestRegisterTraceWorkloadRejects(t *testing.T) {
	one := []TraceEntry{{T: 0}, {T: 1_000_000}}
	for _, tc := range []struct {
		name, policy string
		entries      []TraceEntry
		want         string
	}{
		{"trace/test-empty", "codel", nil, "no arrivals"},
		{"trace/test-regress", "codel", []TraceEntry{{T: 5}, {T: 1}}, "non-decreasing"},
		{"trace/test-bogus", "codel:bogus=1", one, `unknown parameter "bogus"`},
	} {
		err := RegisterTraceWorkload(tc.name, tc.entries, tc.policy)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, err := ByName(tc.name); err == nil {
			t.Errorf("%s: registered despite the error", tc.name)
		}
	}
}

// TestRegisterFanoutWorkloadRejects: a load factor whose arrival rate
// leaves the arrival processes' range, and a malformed fan-out or hedge
// spec, are registration errors, not panics inside the first cell, and
// none leaves a workload behind.
func TestRegisterFanoutWorkloadRejects(t *testing.T) {
	for _, tc := range []struct {
		name, fan, hedge string
		load             float64
		want             string
	}{
		{"fanout/test-nan", "fanout:width=4,stages=1", "", math.NaN(), "out of range"},
		{"fanout/test-inf", "fanout:width=4,stages=1", "", math.Inf(1), "out of range"},
		{"fanout/test-huge", "fanout:width=4,stages=1", "", 1e12, "out of range"},
		{"fanout/test-zero", "fanout:width=4,stages=1", "", 0, "out of range"},
		{"fanout/test-spec", "fanout:width=0", "", 0.9, "width"},
		{"fanout/test-hedge", "fanout:width=4", "hedge:after=p100", 0.9, "percentile"},
	} {
		err := RegisterFanoutWorkload(tc.name, tc.fan, tc.hedge, tc.load)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, err := ByName(tc.name); err == nil {
			t.Errorf("%s: registered despite the error", tc.name)
		}
	}
}
