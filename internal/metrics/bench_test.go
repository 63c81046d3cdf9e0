package metrics

import (
	"testing"

	"repro/internal/sim"
)

// hedgeMix records the add/query sequence a percentile-hedged fan-out
// cell makes: one hedge-delay query per subtask issued and, for most
// issues, one completed-subtask latency (heavy-tailed, cv 1.5, around
// 400 µs: the fanout/* workloads' 250 µs service plus queueing). A
// negative entry is a query.
func hedgeMix(n int) []sim.Duration {
	r := sim.NewRand(7)
	lat := sim.NewLogNormal(400*sim.Microsecond, 1.5)
	ops := make([]sim.Duration, 0, n)
	for len(ops) < n {
		ops = append(ops, -1)
		if r.Float64() < 0.9 {
			ops = append(ops, lat.Draw(r))
		}
	}
	return ops
}

// scanHist answers the percentile with a full LatHist.Percentile scan,
// the O(buckets) cost PctlHist avoids.
type scanHist struct {
	LatHist
	p float64
}

func (s *scanHist) Value() sim.Duration { return s.Percentile(s.p) }

// hedgeHist is what the hedge delay needs of its histogram.
type hedgeHist interface {
	Add(sim.Duration)
	Value() sim.Duration
}

// hedgeSink keeps the compiler from dropping the measured query.
var hedgeSink sim.Duration

// BenchmarkHedgeDelay compares answering the p95 hedge delay with a full
// LatHist.Percentile scan against the PctlHist cursor, over the same
// recorded mix; each pass over the mix starts from an empty histogram.
// ns/op is per query.
func BenchmarkHedgeDelay(b *testing.B) {
	ops := hedgeMix(200000)
	run := func(b *testing.B, fresh func() hedgeHist) {
		b.ReportAllocs()
		for i := 0; i < b.N; {
			h := fresh()
			for _, d := range ops {
				if d >= 0 {
					h.Add(d)
					continue
				}
				hedgeSink = h.Value()
				if i++; i == b.N {
					break
				}
			}
		}
	}
	b.Run("Percentile", func(b *testing.B) {
		run(b, func() hedgeHist {
			return &scanHist{p: 95}
		})
	})
	b.Run("PctlHist", func(b *testing.B) {
		run(b, func() hedgeHist {
			q := NewPctlHist(95)
			return &q
		})
	})
}
