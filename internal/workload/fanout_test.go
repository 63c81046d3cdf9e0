package workload

import (
	"encoding/json"
	"testing"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/governor"
	"repro/internal/machine"
)

func TestParseFanoutSpecCanonical(t *testing.T) {
	cases := map[string]string{
		"fanout:width=16":                        "fanout:width=16,stages=1,agg=all",
		"fanout:width=16,stages=2,agg=all":       "fanout:width=16,stages=2,agg=all",
		"fanout:width=16,stages=2,agg=quorum:12": "fanout:width=16,stages=2,agg=quorum:12",
		"fanout:agg=quorum:1,width=1":            "fanout:width=1,stages=1,agg=quorum:1",
		" fanout:width=8,stages=16 ":             "fanout:width=8,stages=16,agg=all",
		"fanout:width=1024,stages=1,agg=all":     "fanout:width=1024,stages=1,agg=all",
		"fanout:width=3,agg=quorum:3":            "fanout:width=3,stages=1,agg=quorum:3",
	}
	for in, want := range cases {
		sp, err := ParseFanoutSpec(in)
		if err != nil {
			t.Errorf("ParseFanoutSpec(%q): %v", in, err)
			continue
		}
		if got := sp.String(); got != want {
			t.Errorf("ParseFanoutSpec(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseFanoutSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"fanout",
		"fanout:",
		"fanout:stages=2",
		"fanout:width=0",
		"fanout:width=-4",
		"fanout:width=1025",
		"fanout:width=4,stages=17",
		"fanout:width=4,agg=quorum:5",
		"fanout:width=4,agg=quorum:0",
		"fanout:width=4,agg=most",
		"fanout:width=4,width=4",
		"fanout:width=4,depth=2",
		"spread:width=4",
	} {
		if _, err := ParseFanoutSpec(in); err == nil {
			t.Errorf("ParseFanoutSpec(%q): expected error", in)
		}
	}
}

func TestParseHedgeSpecCanonical(t *testing.T) {
	cases := map[string]string{
		"hedge:none":               "hedge:none",
		"hedge:after=2ms":          "hedge:after=2ms,max=1",
		"hedge:after=2ms,max=3":    "hedge:after=2ms,max=3",
		"hedge:after=p95":          "hedge:after=p95,max=1",
		"hedge:after=p50,max=8":    "hedge:after=p50,max=8",
		"hedge:max=2,after=1500us": "hedge:after=1500us,max=2",
	}
	for in, want := range cases {
		sp, err := ParseHedgeSpec(in)
		if err != nil {
			t.Errorf("ParseHedgeSpec(%q): %v", in, err)
			continue
		}
		if got := sp.String(); got != want {
			t.Errorf("ParseHedgeSpec(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseHedgeSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"hedge",
		"hedge:",
		"hedge:max=2",
		"hedge:after=0ms",
		"hedge:after=p0",
		"hedge:after=p100",
		"hedge:after=2ms,max=0",
		"hedge:after=2ms,max=9",
		"hedge:after=2ms,after=3ms",
		"hedge:after=2parsecs",
		"nope:after=2ms",
	} {
		if _, err := ParseHedgeSpec(in); err == nil {
			t.Errorf("ParseHedgeSpec(%q): expected error", in)
		}
	}
}

// installFanout installs prof with an explicit base-arrival budget and
// no admission control, and returns the live pool for white-box
// inspection.
func installFanout(m *cpu.Machine, prof openLoopProfile, total int) *openLoop {
	prof.admission = "none"
	return installOpenLoopPool(m, prof, total)
}

// TestFanoutConservation holds the lifecycle to its invariant one level
// down: every subtask attempt — primaries and hedges, across quorum
// cancellation and deadline dooming — terminal in exactly one of
// done/cancelled/timed-out/shed, with nothing outstanding at the end,
// and the parent-level attempt accounting conserved above it.
func TestFanoutConservation(t *testing.T) {
	profiles := map[string]openLoopProfile{
		"all-light":    referenceFanout(8, 0.7, "none"),
		"all-hedged":   referenceFanout(16, 0.7, "p95"),
		"overload":     referenceFanout(16, 1.4, "p95"),
		"quorum-hedge": referenceFanout(16, 1.0, "none"),
	}
	q := profiles["quorum-hedge"]
	q.fan.Quorum = 12
	q.hedge = HedgeSpec{Kind: HedgeFixed, After: msec, Max: 2}
	profiles["quorum-hedge"] = q

	for name, prof := range profiles {
		m := cpu.New(cpu.Config{
			Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
			Policy: cfs.Default(), Seed: 11,
		})
		ol := installFanout(m, prof, 1200)
		res := m.Run(0)
		if res.Custom["truncated"] != 0 {
			t.Fatalf("%s: run truncated", name)
		}
		if msg := ol.fanProbe(); msg != "" {
			t.Errorf("%s: subtask conservation broken: %s", name, msg)
		}
		if ol.fanOutstanding != 0 {
			t.Errorf("%s: %d subtask attempts leaked", name, ol.fanOutstanding)
		}
		if ol.fanIssued == 0 || ol.fanDone == 0 {
			t.Errorf("%s: no fan-out activity (issued %d, done %d)", name, ol.fanIssued, ol.fanDone)
		}
		if ol.offered != ol.completed+ol.timedOut+ol.shed {
			t.Errorf("%s: parent conservation broken: offered %d != %d+%d+%d",
				name, ol.offered, ol.completed, ol.timedOut, ol.shed)
		}
		if ol.cfg.hedge.Kind != HedgeNone && ol.fanHedges > 0 && ol.fanHedgeWins > ol.fanHedges {
			t.Errorf("%s: more hedge wins (%d) than hedges (%d)", name, ol.fanHedgeWins, ol.fanHedges)
		}
		t.Logf("%s: issued %d = done %d + cancelled %d + timeout %d + shed %d; hedges %d wins %d; parents %d/%d/%d",
			name, ol.fanIssued, ol.fanDone, ol.fanCancelled, ol.fanTimeout, ol.fanShed,
			ol.fanHedges, ol.fanHedgeWins, ol.completed, ol.timedOut, ol.shed)
	}
}

// TestHedgeTimerHoldsFanReq: an armed hedge timer keeps its fan-out
// record out of the pool. The parent settles while the timer is armed,
// so the record must stay unpooled until the timer fires; only then is
// it recycled, and the next newFanReq hands it out again.
func TestHedgeTimerHoldsFanReq(t *testing.T) {
	m := cpu.New(cpu.Config{
		Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
		Policy: cfs.Default(), Seed: 1,
	})
	ol := &openLoop{m: m, cfg: openLoopCfg{openLoopProfile: openLoopProfile{
		fan:   &FanoutSpec{Width: 2, Stages: 1},
		hedge: HedgeSpec{Kind: HedgeFixed, After: msec, Max: 1},
	}}}
	rq := &request{ol: ol}
	fr := ol.newFanReq(rq)
	ol.armHedge(fr, 0)
	if fr.timers != 1 {
		t.Fatalf("armHedge left timers = %d, want 1", fr.timers)
	}
	fr.rq = nil // the parent settles with no attempt open
	ol.maybeFreeFanReq(fr)
	if fr.pooled {
		t.Fatal("record pooled while a hedge timer still holds it")
	}
	m.Engine().RunUntil(func() bool { return fr.timers == 0 })
	if !fr.pooled {
		t.Fatal("record not pooled after its last hedge timer fired")
	}
	if got := ol.newFanReq(rq); got != fr {
		t.Fatal("next newFanReq did not reuse the released record")
	}
}

// TestFanoutQuorumCancelsStragglers: with quorum:K aggregation the
// stage advances after K completions, so the W-K undone slots' attempts
// must drain as cancelled — saved work, visible in the accounting.
func TestFanoutQuorumCancelsStragglers(t *testing.T) {
	prof := referenceFanout(16, 0.7, "none")
	prof.fan.Quorum = 10
	m := cpu.New(cpu.Config{
		Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
		Policy: cfs.Default(), Seed: 3,
	})
	ol := installFanout(m, prof, 600)
	if res := m.Run(0); res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	if ol.fanCancelled == 0 {
		t.Errorf("quorum run cancelled no stragglers (issued %d, done %d)", ol.fanIssued, ol.fanDone)
	}
	if msg := ol.fanProbe(); msg != "" {
		t.Errorf("subtask conservation broken: %s", msg)
	}
}

// TestFanoutDeadlinePropagates: with no admission control in the way,
// sustained overload must blow the per-stage deadline budgets — subtask
// attempts expire, their parents are doomed through the fanout timeout
// path, and the parent accounting stays conserved.
func TestFanoutDeadlinePropagates(t *testing.T) {
	prof := referenceFanout(16, 1.4, "none")
	m := cpu.New(cpu.Config{
		Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
		Policy: cfs.Default(), Seed: 5,
	})
	ol := installFanout(m, prof, 1500)
	if res := m.Run(0); res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	if ol.fanTimeout == 0 {
		t.Error("overloaded fan-out produced no subtask timeouts")
	}
	if ol.timeoutFanout == 0 {
		t.Error("overloaded fan-out doomed no parents")
	}
	if ol.offered != ol.completed+ol.timedOut+ol.shed {
		t.Errorf("offered %d != completed %d + timeout %d + shed %d",
			ol.offered, ol.completed, ol.timedOut, ol.shed)
	}
}

// TestHedgingShrinksTail is the tail-at-scale headline: at moderate
// load, hedging straggler subtasks at their observed p95 must improve
// the request p99 versus no hedging — and both runs must stay
// byte-identical across repeats at the same seed.
func TestHedgingShrinksTail(t *testing.T) {
	type tailStamp struct {
		p99, hedges, wins float64
	}
	spec := machine.IntelXeon6130(2)
	stamp := func(name string) (tailStamp, []byte) {
		res := runOn(t, name, spec, 0.05)
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return tailStamp{res.Custom["req_p99_us"], res.Custom["fan_hedges"], res.Custom["fan_hedge_wins"]}, b
	}
	plainName := FanoutMixName(16, 0.7, "none")
	hedgeName := FanoutMixName(16, 0.7, "p95")
	plain, plainBytes := stamp(plainName)
	hedged, hedgedBytes := stamp(hedgeName)
	if hedged.hedges == 0 || hedged.wins == 0 {
		t.Fatalf("hedged run issued %g hedges, won %g — nothing exercised", hedged.hedges, hedged.wins)
	}
	if plain.hedges != 0 {
		t.Errorf("hedge:none run issued %g hedges", plain.hedges)
	}
	if hedged.p99 >= plain.p99 {
		t.Errorf("hedging did not shrink the tail: p99 %gus (p95 hedge) vs %gus (none)", hedged.p99, plain.p99)
	}
	t.Logf("req p99: %gus hedged vs %gus plain; hedges %g, wins %g",
		hedged.p99, plain.p99, hedged.hedges, hedged.wins)
	// Same seed, same workload: byte-identical replay.
	if _, b := stamp(plainName); string(b) != string(plainBytes) {
		t.Error("hedge:none replay diverged")
	}
	if _, b := stamp(hedgeName); string(b) != string(hedgedBytes) {
		t.Error("hedged replay diverged")
	}
}

// TestFanoutSchedulersShareArrivals: the base offered load (offered
// minus retries) must be identical across schedulers at the same seed —
// hedging is server-side and draws no arrival RNG, so Nest and CFS
// face the same clients.
func TestFanoutSchedulersShareArrivals(t *testing.T) {
	base := func(policy cpu.Config) float64 {
		w, err := ByName(FanoutMixName(16, 0.7, "p95"))
		if err != nil {
			t.Fatal(err)
		}
		policy.Spec = machine.IntelXeon6130(2)
		policy.Gov = governor.Schedutil{}
		policy.Seed = 11
		m := cpu.New(policy)
		w.Install(m, 0.05)
		res := m.Run(0)
		if res.Custom["truncated"] != 0 {
			t.Fatal("run truncated")
		}
		return res.Custom["ovl_offered"] - res.Custom["ovl_retries"]
	}
	cfsBase := base(cpu.Config{Policy: cfs.Default()})
	nestBase := base(cpu.Config{Policy: nest.Default()})
	if cfsBase == 0 || cfsBase != nestBase {
		t.Errorf("base arrivals diverged across schedulers: cfs %g, nest %g", cfsBase, nestBase)
	}
}

// TestFanoutNoDeadlineNoTimeouts: with timeout=0 there are no stage
// budgets, so nothing may time out and every parent must complete.
func TestFanoutNoDeadlineNoTimeouts(t *testing.T) {
	prof := referenceFanout(8, 0.7, "p95")
	prof.timeout, prof.retries = 0, 0
	m := cpu.New(cpu.Config{
		Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
		Policy: cfs.Default(), Seed: 9,
	})
	ol := installFanout(m, prof, 400)
	if res := m.Run(0); res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	if ol.fanTimeout != 0 {
		t.Errorf("deadline-free run timed out %d subtask attempts", ol.fanTimeout)
	}
	if ol.completed != ol.offered {
		t.Errorf("deadline-free run: %d of %d parents completed", ol.completed, ol.offered)
	}
}
