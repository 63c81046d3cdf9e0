package obs

import (
	"io"
)

// SeriesBuffer is a compact in-memory recorder for the periodic gauge
// stream: gauge events land in typed slices (no per-event boxing beyond
// the slice cells), everything else is ignored. It preserves emission
// order across the gauge kinds so WriteJSONL reproduces the exact
// stream a JSONLRecorder would have written for the same run.
type SeriesBuffer struct {
	Cores      []CoreGauge
	Nests      []NestGauge
	Sockets    []SocketGauge
	Underloads []UnderloadGauge

	order []seriesRef
}

type seriesRef struct {
	kind seriesKind
	idx  int32
}

type seriesKind uint8

const (
	seriesCore seriesKind = iota
	seriesNest
	seriesSocket
	seriesUnderload
)

// Record implements Recorder, copying gauge events into the typed
// slices and dropping the rest.
func (b *SeriesBuffer) Record(ev Event) {
	switch e := ev.(type) {
	case *CoreGauge:
		b.order = append(b.order, seriesRef{seriesCore, int32(len(b.Cores))})
		b.Cores = append(b.Cores, *e)
	case *NestGauge:
		b.order = append(b.order, seriesRef{seriesNest, int32(len(b.Nests))})
		b.Nests = append(b.Nests, *e)
	case *SocketGauge:
		b.order = append(b.order, seriesRef{seriesSocket, int32(len(b.Sockets))})
		b.Sockets = append(b.Sockets, *e)
	case *UnderloadGauge:
		b.order = append(b.order, seriesRef{seriesUnderload, int32(len(b.Underloads))})
		b.Underloads = append(b.Underloads, *e)
	}
}

// Len returns the number of buffered gauge samples.
func (b *SeriesBuffer) Len() int { return len(b.order) }

// Each calls fn for every buffered gauge in emission order. Like live
// emission it passes pointers, here into the buffer's own slices.
func (b *SeriesBuffer) Each(fn func(ev Event)) {
	for _, r := range b.order {
		switch r.kind {
		case seriesCore:
			fn(&b.Cores[r.idx])
		case seriesNest:
			fn(&b.Nests[r.idx])
		case seriesSocket:
			fn(&b.Sockets[r.idx])
		case seriesUnderload:
			fn(&b.Underloads[r.idx])
		}
	}
}

// WriteJSONL writes the buffered gauges to w in emission order, in the
// same wire format as JSONLRecorder.
func (b *SeriesBuffer) WriteJSONL(w io.Writer) error {
	jr := NewJSONL(w)
	b.Each(jr.Record)
	return jr.Flush()
}
