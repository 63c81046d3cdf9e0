package obs

import (
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/ordered"
)

// Counter is one named atomic tally. The zero value is ready to use; a
// nil *Counter drops increments, so hot paths can hold a handle without
// caring whether observability is on.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current tally. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counters is a run-wide registry of named counters. Names are dotted
// label paths — "<scheduler>.<path>" for placement decisions (e.g.
// "cfs.idlest_group", "nest.attached"), "nest.expand"/"nest.compact"/
// "nest.impatience" for nest structure, "cpu.migration" and
// "cpu.balance.<kind>" for runtime events, "freq.grant"/"gov.request"
// for frequency selection. See docs/OBSERVABILITY.md for the full list.
//
// The registry is safe for concurrent use. Lookups read an immutable
// name→counter map through an atomic pointer and take no lock;
// increments are atomic. Registering a new name copies the map under a
// mutex and publishes the copy, so readers always see a complete map.
// Names are few and registered once each, so the copies are rare. It
// is the repository's first intentionally concurrent-safe structure
// (the simulation itself is single-goroutine).
//
// Events do not look their counters up by name. Each fixed name an
// event bumps ("gauge.core", "runs", ...) resolves once per registry
// into its own slot, and each composed name ("<sched>.<path>",
// "fault.<action>", ...) is cached under the parts it is built from, so
// the per-event cost is one atomic load (or one map probe on the parts)
// with no string built. A name still registers on its first increment,
// so Names and Snapshot list exactly the names that were bumped.
type Counters struct {
	mu sync.Mutex // serialises registration
	m  atomic.Pointer[map[string]*Counter]

	fixed    [numFixed]atomic.Pointer[Counter]
	composed atomic.Pointer[map[composedKey]*Counter]
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	cs := &Counters{}
	cs.m.Store(&map[string]*Counter{})
	cs.composed.Store(&map[composedKey]*Counter{})
	return cs
}

// lookup returns the counter registered under name, or nil.
func (cs *Counters) lookup(name string) *Counter { return (*cs.m.Load())[name] }

// Handle returns the counter registered under name, creating it if
// needed. Every call hashes name; a hot path should call Handle once
// and keep the result, then call Add on it directly. The handle stays
// valid for the registry's lifetime, and the same name always yields
// the same handle. Returns nil on a nil registry.
func (cs *Counters) Handle(name string) *Counter {
	if cs == nil {
		return nil
	}
	if c := cs.lookup(name); c != nil {
		return c
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.registerLocked(name)
}

// registerLocked returns name's counter, publishing a new one if name
// is not registered yet. The caller holds cs.mu.
func (cs *Counters) registerLocked(name string) *Counter {
	old := *cs.m.Load()
	if c := old[name]; c != nil {
		return c
	}
	next := maps.Clone(old)
	c := &Counter{}
	next[name] = c
	cs.m.Store(&next)
	return c
}

// Add increments the named counter, registering it on first use.
// Nil-safe.
func (cs *Counters) Add(name string, n int64) {
	cs.Handle(name).Add(n)
}

// Value returns the named counter's tally (0 if never registered).
func (cs *Counters) Value(name string) int64 {
	if cs == nil {
		return 0
	}
	return cs.lookup(name).Value()
}

// Names returns all registered counter names, sorted.
func (cs *Counters) Names() []string {
	if cs == nil {
		return nil
	}
	return ordered.Keys(*cs.m.Load())
}

// Snapshot returns a point-in-time copy of every counter.
func (cs *Counters) Snapshot() map[string]int64 {
	if cs == nil {
		return nil
	}
	m := *cs.m.Load()
	out := make(map[string]int64, len(m))
	for _, name := range ordered.Keys(m) {
		out[name] = m[name].Value()
	}
	return out
}

// ---- Event counters ---------------------------------------------------
//
// The names below are the ones events bump (see each event's count
// method). They are resolved through cached handles, never hashed per
// event.

// fixedName indexes a counter name that does not depend on event fields.
type fixedName uint8

const (
	cRuns fixedName = iota
	cSummaries
	cMigration
	cNestExpand
	cNestCompact
	cNestImpatience
	cFreqGrant
	cGovRequest
	cInvariantViolation
	cGaugeCore
	cGaugeNest
	cGaugeSocket
	cGaugeUnderload
	cOvlShed
	cOvlTimeout
	cOvlRetry
	cOvlCompleted
	cFanSubDone
	cFanHedgeWin
	cFanSubCancel
	cFanHedge
	numFixed
)

var fixedNames = [numFixed]string{
	cRuns:               "runs",
	cSummaries:          "summaries",
	cMigration:          "cpu.migration",
	cNestExpand:         "nest.expand",
	cNestCompact:        "nest.compact",
	cNestImpatience:     "nest.impatience",
	cFreqGrant:          "freq.grant",
	cGovRequest:         "gov.request",
	cInvariantViolation: "invariant.violation",
	cGaugeCore:          "gauge.core",
	cGaugeNest:          "gauge.nest",
	cGaugeSocket:        "gauge.socket",
	cGaugeUnderload:     "gauge.underload",
	cOvlShed:            "ovl.shed",
	cOvlTimeout:         "ovl.timeout",
	cOvlRetry:           "ovl.retry",
	cOvlCompleted:       "ovl.completed",
	cFanSubDone:         "fan.sub_done",
	cFanHedgeWin:        "fan.hedge_win",
	cFanSubCancel:       "fan.sub_cancel",
	cFanHedge:           "fan.hedge",
}

// bump adds one to a fixed-name counter, resolving its handle on first
// use. Racing first uses resolve to the same handle, since Handle is
// idempotent per name.
func (cs *Counters) bump(id fixedName) {
	c := cs.fixed[id].Load()
	if c == nil {
		c = cs.Handle(fixedNames[id])
		cs.fixed[id].Store(c)
	}
	c.v.Add(1)
}

// family is how a composed counter name is built from its parts.
type family uint8

const (
	famPath         family = iota // "<sched>.<path>"
	famFault                      // "fault.<action>"
	famBalance                    // "cpu.balance.<kind>"
	famInvariant                  // "invariant.<rule>"
	famOvl                        // "ovl.<action>"
	famOvlShed                    // "ovl.shed.<class>"
	famOvlTimeout                 // "ovl.timeout.<class>"
	famOvlRetry                   // "ovl.retry.<class>"
	famOvlCompleted               // "ovl.completed.<class>"
	famFan                        // "fan.<action>"
	famFanCancel                  // "fan.cancel.<cause>"
)

var familyPrefix = [...]string{
	famFault:        "fault.",
	famBalance:      "cpu.balance.",
	famInvariant:    "invariant.",
	famOvl:          "ovl.",
	famOvlShed:      "ovl.shed.",
	famOvlTimeout:   "ovl.timeout.",
	famOvlRetry:     "ovl.retry.",
	famOvlCompleted: "ovl.completed.",
	famFan:          "fan.",
	famFanCancel:    "fan.cancel.",
}

// composedKey identifies a composed counter by the parts of its name;
// b is used only by famPath.
type composedKey struct {
	fam  family
	a, b string
}

func (k composedKey) name() string {
	if k.fam == famPath {
		return k.a + "." + k.b
	}
	return familyPrefix[k.fam] + k.a
}

// bumpComposed adds one to the counter named by fam and its parts. The
// parts-keyed cache is copy-on-write like the name map, so a hit takes
// no lock and builds no string.
func (cs *Counters) bumpComposed(fam family, a, b string) {
	k := composedKey{fam, a, b}
	c := (*cs.composed.Load())[k]
	if c == nil {
		c = cs.resolveComposed(k)
	}
	c.v.Add(1)
}

// resolveComposed registers k's name and caches its handle under k.
func (cs *Counters) resolveComposed(k composedKey) *Counter {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	old := *cs.composed.Load()
	if c := old[k]; c != nil {
		return c
	}
	c := cs.registerLocked(k.name())
	next := maps.Clone(old)
	next[k] = c
	cs.composed.Store(&next)
	return c
}
