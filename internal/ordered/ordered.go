// Package ordered gives map iteration a fixed order. Go randomizes the
// order of a range over a map on every run, so code whose output must
// replay byte for byte from a seed iterates Keys(m) instead.
package ordered

import (
	"cmp"
	"slices"
)

// Keys returns m's keys in ascending order. An empty map gives a
// non-nil empty slice.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	//lint:maporder the keys are sorted before anyone sees them
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
