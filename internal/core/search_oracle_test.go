package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
	"repro/internal/sim"
)

// TestNestSearchesMatchLoopOracle runs the mask-based primary and
// reserve searches and the per-core loops they replaced on random
// machine states and random nests, including stale primary cores the
// primary search demotes, and requires the same core, the same examined
// count (it feeds ChargeSearch, and so simulated time) and the same nest
// state afterwards.
func TestNestSearchesMatchLoopOracle(t *testing.T) {
	r := sim.NewRand(11)
	for _, spec := range schedtest.Specs() {
		topo := spec.Topo
		t.Run(topo.String(), func(t *testing.T) {
			f := schedtest.NewFake(spec)
			f.NowV = 100 * sim.Millisecond
			n := topo.NumCores()
			for trial := 0; trial < 300; trial++ {
				f.Scramble(r, r.Float64())
				cfg := DefaultConfig()
				cfg.RMax = 1 + r.Intn(8)
				cfg.DisableClaimCheck = r.Intn(4) == 0
				cfg.DisableCompaction = r.Intn(4) == 0
				cfg.DisableReserve = r.Intn(4) == 0
				got := randomNests(f, cfg, r)
				want := cloneNests(f, got)
				ref := machine.CoreID(r.Intn(n))

				var ge, we int
				gc, gok := got.searchPrimary(f, ref, &ge)
				wc, wok := want.searchPrimaryLoop(f, ref, &we)
				if gc != wc || gok != wok || ge != we {
					t.Fatalf("trial %d primary from %d: masks (%d %v examined %d), loop (%d %v examined %d)",
						trial, ref, gc, gok, ge, wc, wok, we)
				}
				sameNests(t, trial, got, want)

				ge, we = 0, 0
				gc, gok = got.searchReserve(f, ref, &ge)
				wc, wok = want.searchReserveLoop(f, ref, &we)
				if gc != wc || gok != wok || ge != we {
					t.Fatalf("trial %d reserve from %d: masks (%d %v examined %d), loop (%d %v examined %d)",
						trial, ref, gc, gok, ge, wc, wok, we)
				}
			}
		})
	}
}

// randomNests returns a Nest policy whose start core and nests are
// drawn at random over f's online cores; about two thirds of the
// primary cores are past their compaction deadline.
func randomNests(f *schedtest.Fake, cfg Config, r *sim.Rand) *Policy {
	p := New(cfg)
	n := f.Topo().NumCores()
	p.ensure(f, machine.CoreID(r.Intn(n)))
	now := f.Now()
	for c := machine.CoreID(0); int(c) < n; c++ {
		if f.Offline[c] {
			continue
		}
		switch x := r.Float64(); {
		case x < 0.3:
			p.primary.add(c)
			p.nPrimary++
			p.lastUsed[c] = now - r.Duration(0, 3*cfg.PRemove)
		case x < 0.5 && p.nReserve < cfg.RMax:
			p.reserve.add(c)
			p.nReserve++
		}
	}
	return p
}

// cloneNests returns a copy of p's nest state.
func cloneNests(f sched.Machine, p *Policy) *Policy {
	q := New(p.cfg)
	q.ensure(f, p.startCore)
	for c := machine.CoreID(0); int(c) < f.Topo().NumCores(); c++ {
		if p.primary.has(c) {
			q.primary.add(c)
		}
		if p.reserve.has(c) {
			q.reserve.add(c)
		}
	}
	copy(q.lastUsed, p.lastUsed)
	copy(q.evicted, p.evicted)
	q.nPrimary, q.nReserve = p.nPrimary, p.nReserve
	return q
}

// sameNests fails the test unless a and b hold the same nest state.
func sameNests(t *testing.T, trial int, a, b *Policy) {
	t.Helper()
	if a.nPrimary != b.nPrimary || a.nReserve != b.nReserve {
		t.Fatalf("trial %d: nest sizes %d/%d, oracle %d/%d", trial, a.nPrimary, a.nReserve, b.nPrimary, b.nReserve)
	}
	for c := range a.lastUsed {
		cid := machine.CoreID(c)
		if a.primary.has(cid) != b.primary.has(cid) || a.reserve.has(cid) != b.reserve.has(cid) ||
			a.evicted[c] != b.evicted[c] || a.lastUsed[c] != b.lastUsed[c] {
			t.Fatalf("trial %d: core %d state differs from the oracle's", trial, c)
		}
	}
}

// searchPrimaryLoop and searchReserveLoop are the nest searches as they
// were before the nest masks: they test cores one at a time in ScanFrom
// order. They are the oracles of TestNestSearchesMatchLoopOracle.
func (p *Policy) searchPrimaryLoop(m sched.Machine, ref machine.CoreID, examined *int) (machine.CoreID, bool) {
	topo := m.Topo()
	now := m.Now()
	for _, s := range topo.SocketOrder(ref) {
		for _, c := range topo.ScanFrom(s, ref) {
			if !p.primary.has(c) {
				continue
			}
			*examined++
			if !p.usable(m, c) {
				continue
			}
			if !p.cfg.DisableCompaction && now-p.lastUsed[c] > p.cfg.PRemove {
				// Compaction: a task tried to use a stale core (§3.1).
				p.demote(c, now, "idle_timeout")
				continue
			}
			p.lastUsed[c] = now
			return c, true
		}
	}
	return 0, false
}

func (p *Policy) searchReserveLoop(m sched.Machine, ref machine.CoreID, examined *int) (machine.CoreID, bool) {
	topo := m.Topo()
	for _, s := range topo.SocketOrder(ref) {
		for _, c := range topo.ScanFrom(s, p.startCore) {
			if !p.reserve.has(c) {
				continue
			}
			*examined++
			if p.usable(m, c) {
				return c, true
			}
		}
	}
	return 0, false
}
