package ordered

import (
	"slices"
	"testing"
)

func TestKeys(t *testing.T) {
	m := map[string]int{"pelt": 3, "cfs": 1, "nest": 2, "smove": 0, "cpu": 5}
	got := Keys(m)
	if want := []string{"cfs", "cpu", "nest", "pelt", "smove"}; !slices.Equal(got, want) {
		t.Errorf("Keys = %v, want %v", got, want)
	}

	type cores map[int]bool
	if got, want := Keys(cores{7: true, -1: false, 3: true}), []int{-1, 3, 7}; !slices.Equal(got, want) {
		t.Errorf("Keys on a named map type = %v, want %v", got, want)
	}

	for _, empty := range []map[string]int{nil, {}} {
		if got := Keys(empty); got == nil || len(got) != 0 {
			t.Errorf("Keys(%#v) = %#v, want a non-nil empty slice", empty, got)
		}
	}
}
