package sched

import (
	"testing"

	"repro/internal/sim"
)

// TestMaskWrapScans checks Mask's wrap-order searches against a direct
// walk of the positions on multi-word masks.
func TestMaskWrapScans(t *testing.T) {
	r := sim.NewRand(3)
	for _, n := range []int{1, 5, 63, 64, 65, 130, 200} {
		for trial := 0; trial < 200; trial++ {
			m := make(Mask, MaskWords(n))
			for i := 0; i < n; i++ {
				if r.Float64() < 0.1 {
					m.Set(i)
				}
			}
			start := r.Intn(n)
			from := r.Intn(n + 1)
			to := from + r.Intn(n-from+1)
			wantOff, wantCount := -1, 0
			for off := from; off < to; off++ {
				if m.Has((start + off) % n) {
					if wantOff < 0 {
						wantOff = off
					}
					wantCount++
				}
			}
			if got := m.NextWrap(start, n, from, to); got != wantOff {
				t.Fatalf("n=%d start=%d [%d,%d): NextWrap %d, want %d", n, start, from, to, got, wantOff)
			}
			if got := m.CountWrap(start, n, from, to); got != wantCount {
				t.Fatalf("n=%d start=%d [%d,%d): CountWrap %d, want %d", n, start, from, to, got, wantCount)
			}
			i := r.Intn(n)
			var word uint64
			for b := 0; b < 64 && i+b < n; b++ {
				if m.Has(i + b) {
					word |= 1 << b
				}
			}
			if got := m.Word(i); got != word {
				t.Fatalf("n=%d Word(%d) = %#x, want %#x", n, i, got, word)
			}
		}
	}
}
