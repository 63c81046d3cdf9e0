package obs

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// busy is a busy CoreGauge for core c at t.
func busy(t sim.Time, c, mhz int) *CoreGauge {
	return &CoreGauge{T: t, Core: c, State: "busy", FreqMHz: mhz}
}

func TestTraceWindow(t *testing.T) {
	tr := NewTrace(100*sim.Millisecond, 200*sim.Millisecond)
	tr.Record(busy(50*sim.Millisecond, 1, 2000))  // before window
	tr.Record(busy(150*sim.Millisecond, 3, 3000)) // inside
	tr.Record(busy(250*sim.Millisecond, 5, 2500)) // after
	for _, state := range []string{"idle", "spin", "offline"} {
		tr.Record(&CoreGauge{T: 150 * sim.Millisecond, Core: 4, State: state, FreqMHz: 3000})
	}
	if len(tr.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(tr.Points))
	}
	p := tr.Points[0]
	if p.Core != 3 || p.Freq != 3000 {
		t.Fatalf("point = %+v", p)
	}
	if p.Tick != int32(50*sim.Millisecond/sim.Tick) {
		t.Fatalf("tick = %d", p.Tick)
	}
	if tr.Ticks() != 25 {
		t.Fatalf("Ticks = %d, want 25", tr.Ticks())
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.CoresUsed() != nil || tr.Ticks() != 0 {
		t.Fatal("nil trace not inert")
	}
}

func TestTraceCoresUsedSorted(t *testing.T) {
	tr := NewTrace(0, sim.Second)
	for _, c := range []int{9, 3, 9, 1, 3} {
		tr.Record(busy(sim.Millisecond, c, 2000))
	}
	if got, want := tr.CoresUsed(), []machine.CoreID{1, 3, 9}; !slices.Equal(got, want) {
		t.Fatalf("cores = %v, want %v", got, want)
	}
}

// TestTracePeriodicBalanceSkipped checks that a core a periodic balance
// filled at the batch's instant is left out: it was idle when the tick's
// frequency pass ran. The skip applies to that instant only.
func TestTracePeriodicBalanceSkipped(t *testing.T) {
	tr := NewTrace(0, sim.Second)
	t1, t2 := 4*sim.Millisecond, 8*sim.Millisecond
	tr.Record(TickBalance{T: t1, From: 2, To: 5, Kind2: "periodic"})
	tr.Record(busy(t1, 2, 3000))
	tr.Record(busy(t1, 5, 3000))
	tr.Record(busy(t2, 5, 3000))
	if len(tr.Points) != 2 || tr.Points[0].Core != 2 || tr.Points[1].Core != 5 || tr.Points[1].Tick != 2 {
		t.Fatalf("points = %+v, want core 2 at tick 1 and core 5 at tick 2", tr.Points)
	}
}

// TestTraceNewidleBalanceKept checks that a newidle pull, which happens
// between ticks, does not hide its destination from the trace.
func TestTraceNewidleBalanceKept(t *testing.T) {
	tr := NewTrace(0, sim.Second)
	at := 4 * sim.Millisecond
	tr.Record(TickBalance{T: at, From: 2, To: 5, Kind2: "newidle"})
	tr.Record(busy(at, 5, 3000))
	if len(tr.Points) != 1 || tr.Points[0].Core != 5 {
		t.Fatalf("points = %+v, want core 5", tr.Points)
	}
}

func TestTraceUnderloadWindow(t *testing.T) {
	tr := NewTrace(100*sim.Millisecond, 200*sim.Millisecond)
	tr.Record(&UnderloadGauge{T: 96 * sim.Millisecond, Underload: 7})
	tr.Record(&UnderloadGauge{T: 100 * sim.Millisecond, Underload: 2})
	tr.Record(&UnderloadGauge{T: 104 * sim.Millisecond, Underload: 0})
	tr.Record(&UnderloadGauge{T: 200 * sim.Millisecond, Underload: 9})
	if want := []int{2, 0}; !slices.Equal(tr.UnderloadSeries, want) {
		t.Fatalf("underload = %v, want %v", tr.UnderloadSeries, want)
	}
}
