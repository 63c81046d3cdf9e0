package obs

import "repro/internal/sim"

// ---- Wire format 2: core gauges on change ----------------------------
//
// A JSONL stream writes a core_gauge line only when the core's (state,
// freq_mhz, queue) differs from the last line written for that core.
// Every other line is written, the batch's nest, socket and underload
// gauges included: they mark where a batch's skipped cores belong.
// ExpandGauges puts the skipped lines back.
//
// Writer and reader keep the same state, built from the lines both see:
// a table of tracked cores 0..n-1 holding each one's last written line,
// and next, the core the open batch expects next.
//
//   - A run line empties the table and sets next to 0, so each run's
//     first batch is written in full.
//   - A core_gauge line for core c, 0 <= c <= n, sets the table entry
//     of c (adding it when c == n) and sets next to c+1. Before it, the
//     reader emits the skipped cores next..c-1. Other core numbers are
//     passed through untracked.
//   - The first nest, socket or underload gauge after the core gauges
//     ends them: the reader emits the skipped cores next..n-1 before
//     it, and next becomes n. An underload gauge, the last of a batch,
//     sets next to 0.
//
// The writer skips a core gauge only when its core is next, next < n,
// and its triple equals the table's. A skipped line takes the t_ns of
// the line the reader emits it before. The expansion is exact for
// batches as the sampler emits them: cores 0..N-1 in ascending order at
// one instant, then the batch's other gauges, with no other event in
// between.

// coreKeyCap is the key table's capacity when a recorder sees its first
// core gauge: more cores than any machine preset has (160 on the
// E7-8870 v4), so a run's table is one allocation. A wider stream
// grows it by append.
const coreKeyCap = 256

// gaugeCarry is JSONLRecorder's side of the format-2 state: the packed
// key of each tracked core's last written line, and the next core.
type gaugeCarry struct {
	keys []uint64
	next int
}

// coreKey packs a core gauge's (state, freq_mhz, queue) into one word.
// It returns 0, which matches no key, for a state the sampler does not
// emit or a frequency or queue out of range, so such a line and the
// next one for its core are always written.
func coreKey(g *CoreGauge) uint64 {
	var s uint64
	switch g.State {
	case "busy":
		s = 1
	case "spin":
		s = 2
	case "idle":
		s = 3
	case "offline":
		s = 4
	default:
		return 0
	}
	if uint64(g.FreqMHz) >= 1<<28 || uint64(g.Queue) >= 1<<32 {
		return 0
	}
	return s | uint64(g.FreqMHz)<<3 | uint64(g.Queue)<<31
}

// skip reports whether ev's line can be left out, and otherwise updates
// the state for the line about to be written.
func (c *gaugeCarry) skip(ev Event) bool {
	switch e := ev.(type) {
	case *CoreGauge:
		i := e.Core
		if i < 0 || i > len(c.keys) {
			return false
		}
		k := coreKey(e)
		switch {
		case i == c.next && i < len(c.keys) && k != 0 && c.keys[i] == k:
			c.next++
			return true
		case i == len(c.keys):
			if c.keys == nil {
				c.keys = make([]uint64, 0, coreKeyCap)
			}
			c.keys = append(c.keys, k)
		default:
			c.keys[i] = k
		}
		c.next = i + 1
	case *NestGauge, *SocketGauge:
		c.next = len(c.keys)
	case *UnderloadGauge:
		c.next = 0
	case RunInfo:
		c.keys, c.next = c.keys[:0], 0
	}
	return false
}

// ExpandGauges returns a filter for DecodeStream that restores the core
// gauges a format-2 stream left out: it passes every event to emit and,
// before a batch's next written core gauge or its first other gauge,
// emits each skipped core's gauge in ascending core order. A filled-in
// gauge is a new *CoreGauge, which the caller may keep. Expanding a
// stream written by JSONLRecorder gives back every event it recorded,
// as long as its gauge batches are shaped as the sampler emits them.
func ExpandGauges(emit func(Event)) func(Event) {
	var last []CoreGauge
	next := 0
	fill := func(to int, t sim.Time) {
		for ; next < to; next++ {
			g := last[next]
			g.T = t
			emit(&g)
		}
	}
	return func(ev Event) {
		switch e := ev.(type) {
		case *CoreGauge:
			if i := e.Core; i >= 0 && i <= len(last) {
				fill(i, e.T)
				if i == len(last) {
					last = append(last, *e)
				} else {
					last[i] = *e
				}
				next = i + 1
			}
		case *NestGauge:
			fill(len(last), e.T)
		case *SocketGauge:
			fill(len(last), e.T)
		case *UnderloadGauge:
			fill(len(last), e.T)
			next = 0
		case RunInfo:
			last, next = last[:0], 0
		}
		emit(ev)
	}
}
