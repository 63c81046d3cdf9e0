package obs

import "repro/internal/ordered"

// Counter is one named tally. The zero value is ready to use; a nil
// *Counter drops increments, so hot paths can hold a handle without
// caring whether observability is on.
type Counter struct {
	v int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current tally. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Counters is a run-wide registry of named counters. Names are dotted
// label paths — "<scheduler>.<path>" for placement decisions (e.g.
// "cfs.idlest_group", "nest.attached"), "nest.expand"/"nest.compact"/
// "nest.impatience" for nest structure, "cpu.migration" and
// "cpu.balance.<kind>" for runtime events, "freq.grant"/"gov.request"
// for frequency selection. See docs/OBSERVABILITY.md for the full list.
//
// The registry is not safe for concurrent use: like the simulation
// that feeds it, it belongs to one goroutine at a time. A grid that
// shares one hub across its cells runs them serially, and the
// experiment pool reads a cell's counters on the goroutine that ran
// the cell.
//
// Events do not look their counters up by name. Each fixed name an
// event bumps ("gauge.core", "runs", ...) resolves once per registry
// into its own slot, and each composed name ("<sched>.<path>",
// "fault.<action>", ...) is cached under the parts it is built from, so
// the per-event cost is one slot load (or one map probe on the parts)
// with no string built. A name still registers on its first increment,
// so Names and Snapshot list exactly the names that were bumped.
type Counters struct {
	m        map[string]*Counter
	fixed    [numFixed]*Counter
	composed map[composedKey]*Counter
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	return &Counters{m: map[string]*Counter{}, composed: map[composedKey]*Counter{}}
}

// Handle returns the counter registered under name, creating it if
// needed. Every call hashes name; a hot path should call Handle once
// and keep the result, then call Add on it directly. The handle stays
// valid for the registry's lifetime, and the same name always yields
// the same handle. Returns nil on a nil registry.
func (cs *Counters) Handle(name string) *Counter {
	if cs == nil {
		return nil
	}
	c := cs.m[name]
	if c == nil {
		c = &Counter{}
		cs.m[name] = c
	}
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
	return cs.m[name].Value()
}

// Names returns all registered counter names, sorted.
func (cs *Counters) Names() []string {
	if cs == nil {
		return nil
	}
	return ordered.Keys(cs.m)
}

// Snapshot returns a point-in-time copy of every counter.
func (cs *Counters) Snapshot() map[string]int64 {
	if cs == nil {
		return nil
	}
	out := make(map[string]int64, len(cs.m))
	for _, name := range ordered.Keys(cs.m) {
		out[name] = cs.m[name].v
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
// use.
func (cs *Counters) bump(id fixedName) {
	c := cs.fixed[id]
	if c == nil {
		c = cs.Handle(fixedNames[id])
		cs.fixed[id] = c
	}
	c.v++
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

// bumpComposed adds one to the counter named by fam and its parts. A
// hit in the parts-keyed cache builds no string.
func (cs *Counters) bumpComposed(fam family, a, b string) {
	k := composedKey{fam, a, b}
	c := cs.composed[k]
	if c == nil {
		c = cs.Handle(k.name())
		cs.composed[k] = c
	}
	c.v++
}
