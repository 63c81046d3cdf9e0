package obs

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
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
// Names are few and registered once each, so the copies are rare while
// lookups happen on every emitted event. It is the repository's first
// intentionally concurrent-safe structure (the simulation itself is
// single-goroutine).
type Counters struct {
	mu sync.Mutex // serialises registration
	m  atomic.Pointer[map[string]*Counter]
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	cs := &Counters{}
	cs.m.Store(&map[string]*Counter{})
	return cs
}

// lookup returns the counter registered under name, or nil.
func (cs *Counters) lookup(name string) *Counter { return (*cs.m.Load())[name] }

// Handle returns the counter registered under name, creating it if
// needed. Hot paths can cache the handle and call Add directly. Returns
// nil on a nil registry.
func (cs *Counters) Handle(name string) *Counter {
	if cs == nil {
		return nil
	}
	if c := cs.lookup(name); c != nil {
		return c
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
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
	m := *cs.m.Load()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a point-in-time copy of every counter.
func (cs *Counters) Snapshot() map[string]int64 {
	if cs == nil {
		return nil
	}
	m := *cs.m.Load()
	out := make(map[string]int64, len(m))
	for name, c := range m {
		out[name] = c.Value()
	}
	return out
}
