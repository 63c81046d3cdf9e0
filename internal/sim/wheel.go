package sim

import "math/bits"

// This file implements the engine's pending-event store: pooled node
// records, the two 4-ary heaps (near and far), and the hierarchical
// timing wheel between them.
//
// Layout of the pending set, by scheduled time:
//
//	[now, horizon)            near heap   exact (when, seq) order
//	[horizon, horizon+reach)  wheel       3 levels x 256 buckets
//	[horizon+reach, ...)      far heap    exact (when, seq) order
//
// The level-0 bucket width is 16.384us, so level 0 spans ~4.2ms — one
// scheduler tick — level 1 ~1.07s and level 2 ~275s. Buckets are
// unordered chains; order is recovered when a bucket is drained into the
// near heap, whose (when, seq) comparisons make same-instant FIFO exact.
// That drain is the batched dispatch: one wheel lookup moves a whole
// bucket (for example an entire per-core tick storm at one instant), and
// the near heap stays a few entries deep no matter how many thousands of
// timers are pending, so per-event cost is O(1) in the pending count.
//
// Cancellation: heap residents are removed by index immediately; bucket
// residents are marked dead in place and reclaimed when their bucket
// drains, so Cancel never scans a chain. Pending() stays exact because
// the engine's count is decremented at cancel time either way.

const (
	heapArity = 4

	// bucketShift sizes the level-0 bucket: 2^14 ns = 16.384us, chosen so
	// one level (256 buckets) covers ~4.2ms — just over the 4ms sim.Tick,
	// keeping the dominant tick/timer churn within the fine wheel.
	bucketShift = 14
	bucketWidth = Time(1) << bucketShift

	// levelBits is the log2 fan-out per level: 256 buckets.
	levelBits   = 8
	wheelSlots  = 1 << levelBits
	slotMask    = wheelSlots - 1
	wheelLevels = 3
	wheelWords  = wheelSlots / 64

	// maxTime disables the wheel when used as the horizon (NewEngineHeap).
	maxTime = Time(1<<63 - 1)
)

// node is one pending event record. Nodes live in exactly one place at a
// time — the near heap, a wheel bucket chain, the far heap, or the
// free-list — and are recycled through the engine's free-list so
// steady-state scheduling allocates nothing.
type node struct {
	when Time
	seq  uint64
	r    Runner
	ev   *Event
	next *node // bucket chain / free-list link
	pos  int32 // heap index while loc is locNear or locFar
	loc  int8
}

const (
	locFree int8 = iota
	locNear
	locFar
	locBucket
	locDead // cancelled while chained in a bucket; reclaimed at drain
)

// slabSize is how many nodes one free-list refill allocates at once.
const slabSize = 128

// newNode takes a node from the free-list, refilling it with a fresh
// slab when empty.
//
//pool:get
func (e *Engine) newNode() *node {
	n := e.freeN
	if n == nil {
		slab := make([]node, slabSize)
		for i := range slab[:slabSize-1] {
			slab[i].next = &slab[i+1]
		}
		e.freeN = &slab[0]
		n = e.freeN
	}
	e.freeN = n.next
	n.next = nil
	return n
}

// freeNode clears n and returns it to the free-list.
//
//pool:put
func (e *Engine) freeNode(n *node) {
	n.r = nil
	n.ev = nil
	n.loc = locFree
	n.next = e.freeN
	e.freeN = n
}

// nodeBefore reports whether a fires before b: earlier time first, FIFO
// (scheduling order) within the same instant.
func nodeBefore(a, b *node) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// heapPush appends n to the heap and sifts it up. The 4-ary shape halves
// tree depth versus binary, trading wider sift-down comparisons for
// fewer cache-missing levels — the right trade for pointer-sized slots.
func (e *Engine) heapPush(hp *[]*node, n *node, loc int8) {
	n.loc = loc
	h := append(*hp, n)
	*hp = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !nodeBefore(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].pos = int32(i)
		i = parent
	}
	h[i] = n
	n.pos = int32(i)
}

// siftDown restores heap order below index i.
func siftDown(h []*node, i int) {
	n := len(h)
	en := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if nodeBefore(h[c], h[best]) {
				best = c
			}
		}
		if !nodeBefore(h[best], en) {
			break
		}
		h[i] = h[best]
		h[i].pos = int32(i)
		i = best
	}
	h[i] = en
	en.pos = int32(i)
}

// siftUp restores heap order above index i.
func siftUp(h []*node, i int) {
	en := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !nodeBefore(en, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].pos = int32(i)
		i = parent
	}
	h[i] = en
	en.pos = int32(i)
}

// heapRemoveAt deletes and returns the node at index i.
func (e *Engine) heapRemoveAt(hp *[]*node, i int) *node {
	h := *hp
	n := h[i]
	last := len(h) - 1
	moved := h[last]
	h[last] = nil
	h = h[:last]
	*hp = h
	if i != last {
		h[i] = moved
		moved.pos = int32(i)
		siftDown(h, i)
		siftUp(h, i)
	}
	return n
}

// wheelAdd places a node with when >= horizon into the shallowest level
// whose window covers it, or the far heap beyond the wheel's reach.
// Slots are indexed absolutely (when >> level shift, modulo wheelSlots),
// so no per-insert time arithmetic beyond shifts is needed.
func (e *Engine) wheelAdd(n *node) {
	if n.when < e.horizon {
		// Defensive: callers route sub-horizon events to the near heap;
		// a bucket behind the horizon would never drain.
		e.heapPush(&e.near, n, locNear)
		return
	}
	c := e.horizon >> bucketShift
	s := n.when >> bucketShift
	for l := 0; l < wheelLevels; l++ {
		if s-c < wheelSlots {
			idx := int(s & slotMask)
			n.loc = locBucket
			n.next = e.levels[l][idx]
			e.levels[l][idx] = n
			e.occ[l][idx>>6] |= 1 << (idx & 63)
			e.wheelCount++
			return
		}
		s >>= levelBits
		c >>= levelBits
	}
	e.heapPush(&e.far, n, locFar)
}

// nextOcc returns the first occupied absolute slot of level l in
// [from, to), where to-from <= wheelSlots. Slot indices wrap modulo
// wheelSlots; the occupancy bitmap lets empty regions be skipped a word
// at a time.
func (e *Engine) nextOcc(l int, from, to Time) (Time, bool) {
	occ := &e.occ[l]
	for a := from; a < to; {
		idx := int(a & slotMask)
		w := occ[idx>>6] >> (idx & 63)
		if w != 0 {
			cand := a + Time(bits.TrailingZeros64(w))
			if cand < to {
				return cand, true
			}
			return 0, false
		}
		a += 64 - Time(idx&63) // next bitmap word boundary
	}
	return 0, false
}

// redistribute empties level l's bucket for absolute slot s, reinserting
// live nodes (into the near heap below the horizon, lower wheel levels
// otherwise) and reclaiming dead ones. The caller must already have
// advanced the horizon to (or past) the slot's span start so reinsertion
// terminates at a strictly finer placement.
func (e *Engine) redistribute(l int, s Time) {
	idx := int(s & slotMask)
	n := e.levels[l][idx]
	if n == nil {
		return
	}
	e.levels[l][idx] = nil
	e.occ[l][idx>>6] &^= 1 << (idx & 63)
	for n != nil {
		next := n.next
		n.next = nil
		e.wheelCount--
		if n.loc == locDead {
			e.freeNode(n)
		} else if n.when < e.horizon {
			e.heapPush(&e.near, n, locNear)
		} else {
			e.wheelAdd(n)
		}
		n = next
	}
}

// drainFar moves far-heap events that now fit the wheel's coverage
// window into the wheel. advance calls it eagerly (the no-fit case is a
// single comparison): a far event can be earlier than events already
// sitting in high wheel slots, so it has to re-enter the wheel the
// moment its slot comes into the window.
func (e *Engine) drainFar() {
	c2 := e.horizon >> (bucketShift + 2*levelBits)
	for len(e.far) > 0 {
		f := e.far[0]
		if (f.when>>(bucketShift+2*levelBits))-c2 >= wheelSlots {
			break
		}
		e.heapRemoveAt(&e.far, 0)
		e.wheelAdd(f)
	}
}

// occHas reports whether level l's bucket for absolute slot s is
// non-empty.
func (e *Engine) occHas(l int, s Time) bool {
	idx := int(s & slotMask)
	return e.occ[l][idx>>6]&(1<<(idx&63)) != 0
}

// advance turns the wheel until the near heap holds the next pending
// event. The caller guarantees count > 0.
//
// Each iteration first cascades anything the horizon's current span may
// still hold above level 0 — far-heap events that fit the coverage
// window, then the span's level-2 and level-1 buckets. This runs at the
// top of every iteration rather than only when stepping spans because a
// level-0 bucket drain can carry the horizon across a span boundary
// (draining the last slot of a span lands exactly on the next one);
// cascades keyed off the step path alone would miss that span and
// deliver its higher-level residents a full wheel lap late. With the
// current span cascaded, the level-0 occupancy scan is authoritative:
// drain the first occupied bucket, or step the horizon one level-1 span
// forward. Empty regions cost one bitmap scan per span.
func (e *Engine) advance() {
	for len(e.near) == 0 {
		if e.wheelCount == 0 {
			// The wheel is idle: jump the horizon straight to the
			// earliest far event (there must be one, since count > 0 and
			// both the near heap and the wheel are empty).
			if len(e.far) == 0 {
				panic("sim: advance with no pending events")
			}
			e.horizon = (e.far[0].when >> bucketShift) << bucketShift
			e.drainFar()
			continue
		}
		h0 := e.horizon >> bucketShift
		c1 := h0 >> levelBits
		c2 := c1 >> levelBits
		if len(e.far) > 0 {
			e.drainFar()
		}
		if e.occHas(2, c2) {
			e.redistribute(2, c2)
			continue
		}
		if e.occHas(1, c1) {
			e.redistribute(1, c1)
			continue
		}
		// Anything left in the current level-1 span lives at level 0.
		if s, ok := e.nextOcc(0, h0, (c1+1)<<levelBits); ok {
			e.horizon = (s + 1) << bucketShift
			e.redistribute(0, s)
			continue
		}
		// The span is exhausted; enter the next one. The next iteration's
		// cascade pulls that span's level-1/level-2/far events down.
		e.horizon = (c1 + 1) << (bucketShift + levelBits)
	}
}
