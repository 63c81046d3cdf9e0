// Fixture for the maporder analyzer: every range over a map is banned,
// including loops whose effects happen to commute; ordered.Keys and
// clear are the sanctioned spellings.
package fixture

import (
	"fmt"
	"io"

	"repro/internal/ordered"
)

func badWrite(w io.Writer, m map[string]int) {
	for k, v := range m { // want `range over a map`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// A type parameter ranges over its core type: still a map.
func badGeneric[M ~map[K]V, K comparable, V any](w io.Writer, m M) {
	for k, v := range m { // want `range over a map`
		fmt.Fprintf(w, "%v=%v\n", k, v)
	}
}

type loads map[int]float64

func badNamed(w io.Writer, l loads) {
	for c, v := range l { // want `range over a map`
		fmt.Fprintf(w, "%d %f\n", c, v)
	}
}

// Integer sums commute, but the ban admits no case-by-case proof.
func badIntSum(m map[int]int) int {
	n := 0
	for _, v := range m { // want `range over a map`
		n += v
	}
	return n
}

func badKeysOnly(m map[int]bool) int {
	n := 0
	for range m { // want `range over a map`
		n++
	}
	return n
}

// Sorted keys, then index the map: clean.
func goodOrdered(w io.Writer, m map[string]int) {
	for _, k := range ordered.Keys(m) {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// Emptying a map needs no iteration: clean.
func goodClear(m map[int]int) {
	clear(m)
}

// Slices iterate in index order: clean.
func goodSlice(w io.Writer, s []int) {
	for i, v := range s {
		fmt.Fprintf(w, "%d=%d\n", i, v)
	}
}

func suppressed(m map[int]int) []int {
	var out []int
	//lint:maporder fixture: caller treats the result as a set
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func reasonless(m map[int]int) []int {
	var out []int
	//lint:maporder
	for _, v := range m { // want `needs a justification`
		out = append(out, v)
	}
	return out
}
