package workload

import (
	"reflect"
	"testing"
)

// FuzzParseFanoutSpec checks the fan-out DSL parser never panics and
// that every accepted spec survives a canonicalisation round trip:
// accepted specs validate, and String() re-parses to the identical spec
// and is a fixpoint.
func FuzzParseFanoutSpec(f *testing.F) {
	seeds := []string{
		"",
		"fanout:width=16",
		"fanout:width=16,stages=2,agg=all",
		"fanout:width=16,stages=2,agg=quorum:12",
		"fanout:width=1,stages=1,agg=quorum:1",
		"fanout:width=1024,stages=16,agg=all",
		"fanout:width=0",
		"fanout:width=-3",
		"fanout:width=2000",
		"fanout:width=8,stages=0",
		"fanout:width=8,stages=99",
		"fanout:width=8,agg=quorum:9",
		"fanout:width=8,agg=quorum:0",
		"fanout:width=8,agg=majority",
		"fanout:width=8,width=9",
		"fanout:",
		"nope:width=8",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseFanoutSpec(s)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("parsed spec %q fails its own validation: %v", s, err)
		}
		canon := sp.String()
		sp2, err := ParseFanoutSpec(canon)
		if err != nil {
			t.Fatalf("canonical %q of %q fails to re-parse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("round trip of %q changed the spec: %+v != %+v", s, sp, sp2)
		}
		if again := sp2.String(); again != canon {
			t.Fatalf("canonical form not a fixpoint: %q -> %q", canon, again)
		}
		if n := sp.Need(); n < 1 || n > sp.Width {
			t.Fatalf("spec %q needs %d of %d completions", s, n, sp.Width)
		}
	})
}

// FuzzParseHedgeSpec: same contract for the hedge DSL.
func FuzzParseHedgeSpec(f *testing.F) {
	seeds := []string{
		"",
		"hedge:none",
		"hedge:after=1ms",
		"hedge:after=1ms,max=2",
		"hedge:after=p95",
		"hedge:after=p99,max=8",
		"hedge:after=p50,max=1",
		"hedge:after=p0",
		"hedge:after=p100",
		"hedge:after=0ms",
		"hedge:after=-1ms",
		"hedge:after=1ms,max=0",
		"hedge:after=1ms,max=99",
		"hedge:max=2",
		"hedge:",
		"hedge:none,max=2",
		"nope:after=1ms",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseHedgeSpec(s)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("parsed spec %q fails its own validation: %v", s, err)
		}
		canon := sp.String()
		sp2, err := ParseHedgeSpec(canon)
		if err != nil {
			t.Fatalf("canonical %q of %q fails to re-parse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("round trip of %q changed the spec: %+v != %+v", s, sp, sp2)
		}
		if again := sp2.String(); again != canon {
			t.Fatalf("canonical form not a fixpoint: %q -> %q", canon, again)
		}
	})
}
