package obs

import (
	"io"
	"testing"

	"repro/internal/sim"
)

// gaugeBatch is one periodic sample of the 5218 (2 sockets, 64 hardware
// threads) as the sampler emits it: a CoreGauge per core, one NestGauge
// and a SocketGauge per socket, as pointers the way the hub receives them.
func gaugeBatch() []Event {
	const t = 4 * sim.Millisecond
	states := []string{"busy", "busy", "spin", "idle"}
	var batch []Event
	for c := 0; c < 64; c++ {
		batch = append(batch, &CoreGauge{T: t, Core: c, State: states[c%len(states)], FreqMHz: 2300 + 100*(c%16), Queue: c % 3})
	}
	batch = append(batch, &NestGauge{T: t, Primary: 9, Reserve: 3})
	for s := 0; s < 2; s++ {
		batch = append(batch, &SocketGauge{T: t, Socket: s, Busy: 20 + s, Online: 32})
	}
	return batch
}

// decisionMix is one of each decision event a configure cell emits.
func decisionMix() []Event {
	const t = 5 * sim.Millisecond
	return []Event{
		PlacementDecision{T: t, Sched: "cfs", Task: 7, TaskName: "cc1", Core: 3, Path: "idlest_group", Scanned: 32, Fork: true},
		PlacementDecision{T: t, Sched: "nest", Task: 7, TaskName: "cc1", Core: 3, Path: "attached", Scanned: 1},
		Migration{T: t, Task: 7, TaskName: "cc1", From: 2, To: 3, Reason: "schedule_in"},
		FreqGrant{T: t, Core: 3, GrantMHz: 3900, LimitMHz: 3900, ActivePhys: 2, Reason: "boost"},
		GovernorRequest{T: t, Core: 3, Governor: "schedutil", Util: 0.587, SuggestMHz: 2715, FloorMHz: 1000, EnergyAware: true},
		NestExpand{T: t, Core: 4, Primary: 5, Reserve: 2, Reason: "promote"},
	}
}

func reportPerEvent(b *testing.B, perOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/event")
}

// BenchmarkJSONLRecord records one gauge batch over and over into
// io.Discard. Wire format 2 encodes the first batch in full; after it,
// each batch repeats, so only its core 0 (no underload gauge closes the
// batch) and its nest and socket gauges are encoded.
func BenchmarkJSONLRecord(b *testing.B) {
	batch := gaugeBatch()
	r := NewJSONL(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range batch {
			r.Record(ev)
		}
	}
	reportPerEvent(b, len(batch))
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSeriesBufferRecord appends gauge batches to a SeriesBuffer,
// reusing its storage so the benchmark measures steady state.
func BenchmarkSeriesBufferRecord(b *testing.B) {
	batch := gaugeBatch()
	var buf SeriesBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf.Len() >= 1<<16 {
			buf.Cores, buf.Nests, buf.Sockets = buf.Cores[:0], buf.Nests[:0], buf.Sockets[:0]
			buf.order = buf.order[:0]
		}
		for _, ev := range batch {
			buf.Record(ev)
		}
	}
	reportPerEvent(b, len(batch))
}

// BenchmarkHubEmitCounters emits decisions and gauges through a hub with
// only its counter registry attached: the per-event lookup cost.
func BenchmarkHubEmitCounters(b *testing.B) {
	events := append(decisionMix(), gaugeBatch()...)
	h := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range events {
			h.Emit(ev)
		}
	}
	reportPerEvent(b, len(events))
}
