package sched

import "math/bits"

// Mask is a set of one socket's cores, kept as a bitset indexed by
// position in Topology.SocketCores: bit i stands for the socket's i-th
// core. The placement searches combine the machine's masks with word
// operations instead of testing cores one at a time, and they count
// positions in wrap order from a start position, the order in which
// Topology.ScanFrom lists the socket.
type Mask []uint64

// MaskWords returns the number of words a Mask over n cores needs.
func MaskWords(n int) int { return (n + 63) >> 6 }

// Has reports whether position i is in the set.
func (m Mask) Has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

// Set adds position i.
func (m Mask) Set(i int) { m[i>>6] |= 1 << (i & 63) }

// Clear removes position i.
func (m Mask) Clear(i int) { m[i>>6] &^= 1 << (i & 63) }

// Word returns the 64 positions starting at i as one word, position i
// in bit 0. Positions past the mask's end read as absent.
func (m Mask) Word(i int) uint64 {
	w, sh := i>>6, uint(i&63)
	if w >= len(m) {
		return 0
	}
	x := m[w] >> sh
	if sh != 0 && w+1 < len(m) {
		x |= m[w+1] << (64 - sh)
	}
	return x
}

// Next returns the first position in [lo, hi) that is in the set, or -1.
func (m Mask) Next(lo, hi int) int {
	for lo < hi {
		w := lo >> 6
		if x := m[w] >> (lo & 63); x != 0 {
			if p := lo + bits.TrailingZeros64(x); p < hi {
				return p
			}
			return -1
		}
		lo = (w + 1) << 6
	}
	return -1
}

// Count returns how many positions in [lo, hi) are in the set.
func (m Mask) Count(lo, hi int) int {
	n := 0
	for lo < hi {
		w, sh := lo>>6, lo&63
		x := m[w] >> sh
		if span := hi - lo; span < 64-sh {
			x &= 1<<span - 1
		}
		n += bits.OnesCount64(x)
		lo = (w + 1) << 6
	}
	return n
}

// NextWrap scans the n positions of a socket in wrap order from start
// (start, start+1, ..., n-1, 0, ..., start-1) and returns the smallest
// offset in [from, to) whose position is in the set, or -1. The position
// is (start+offset) mod n. It needs 0 <= start < n and 0 <= from <= to
// <= n.
func (m Mask) NextWrap(start, n, from, to int) int {
	if n <= 64 {
		if r := m.rotate(start, n) & span(from, to); r != 0 {
			return bits.TrailingZeros64(r)
		}
		return -1
	}
	lo, hi := start+from, start+to
	if lo < n {
		if p := m.Next(lo, min(hi, n)); p >= 0 {
			return p - start
		}
		lo = n
	}
	if hi > n {
		if p := m.Next(lo-n, hi-n); p >= 0 {
			return p + n - start
		}
	}
	return -1
}

// CountWrap counts the positions at offsets [from, to) of the same wrap
// order that are in the set.
func (m Mask) CountWrap(start, n, from, to int) int {
	if n <= 64 {
		return bits.OnesCount64(m.rotate(start, n) & span(from, to))
	}
	lo, hi := start+from, start+to
	c := 0
	if lo < n {
		c = m.Count(lo, min(hi, n))
		lo = n
	}
	if hi > n {
		c += m.Count(lo-n, hi-n)
	}
	return c
}

// rotate returns a one-word mask over n <= 64 positions rotated so that
// bit k holds offset k of the wrap order from start.
func (m Mask) rotate(start, n int) uint64 {
	x := m[0] & span(0, n)
	return (x>>start | x<<(n-start)) & span(0, n)
}

// span returns a word with bits [from, to) set, for 0 <= from <= to <= 64.
func span(from, to int) uint64 {
	return (1<<to - 1) &^ (1<<from - 1)
}
