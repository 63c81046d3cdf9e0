package sim

import (
	"testing"
	"testing/quick"
)

// fn adapts a closure to Runner so tests can post inline bodies.
type fn func()

func (f fn) RunAt(Time) { f() }

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.PostRun(30, fn(func() { got = append(got, 3) }))
	e.PostRun(10, fn(func() { got = append(got, 1) }))
	e.PostRun(20, fn(func() { got = append(got, 2) }))
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.PostRun(5, fn(func() { got = append(got, i) }))
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var fired Time = -1
	e.PostRun(100, fn(func() {
		e.PostRunAfter(50, fn(func() { fired = e.Now() }))
	}))
	e.Run(0)
	if fired != 150 {
		t.Fatalf("PostRunAfter fired at %d, want 150", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	var ev Event
	e.Arm(&ev, 10, fn(func() { ran = true }))
	if !e.Cancel(&ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(&ev) {
		t.Fatal("double Cancel returned true")
	}
	e.Run(0)
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineCancelNested(t *testing.T) {
	// Cancelling an event from inside another event at the same instant.
	e := NewEngine()
	ran := false
	var victim Event
	e.PostRun(10, fn(func() { e.Cancel(&victim) }))
	e.Arm(&victim, 10, fn(func() { ran = true }))
	e.Run(0)
	if ran {
		t.Fatal("event cancelled at its own instant still ran")
	}
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine()
	var at Time
	// Arm on a pending handle moves the event.
	var ev Event
	e.Arm(&ev, 10, fn(func() { at = e.Now() }))
	e.Arm(&ev, 40, fn(func() { at = e.Now() }))
	e.Run(0)
	if at != 40 {
		t.Fatalf("rescheduled event fired at %d, want 40", at)
	}
	// Re-arming an already-fired event must work too.
	e.Arm(&ev, 60, fn(func() { at = e.Now() }))
	e.Run(0)
	if at != 60 {
		t.Fatalf("re-armed event fired at %d, want 60", at)
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick fn
	tick = func() {
		count++
		e.PostRunAfter(10, tick)
	}
	e.PostRunAfter(10, tick)
	e.Run(100)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.PostRun(10, fn(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.PostRun(5, fn(func() {}))
	}))
	e.Run(0)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick fn
	tick = func() { n++; e.PostRunAfter(1, tick) }
	e.PostRunAfter(1, tick)
	e.RunUntil(func() bool { return n >= 7 })
	if n != 7 {
		t.Fatalf("n = %d, want 7", n)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for adjacent seeds collide too often: %d", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntnProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDurationBounds(t *testing.T) {
	f := func(seed uint64, a, b uint32) bool {
		lo, hi := Duration(a), Duration(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		r := NewRand(seed)
		d := r.Duration(lo, hi)
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandLogNormalDur(t *testing.T) {
	r := NewRand(1)
	mean := 10 * Millisecond
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := r.LogNormalDur(mean, 0.5)
		if d < mean/10 || d > mean*10 {
			t.Fatalf("sample %v outside clamp", d)
		}
		sum += float64(d)
	}
	avg := sum / n
	if avg < float64(mean)*0.8 || avg > float64(mean)*1.2 {
		t.Fatalf("lognormal mean drifted: got %v want ~%v", Duration(avg), mean)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(3)
	mean := 2 * Millisecond
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	avg := sum / n
	if avg < float64(mean)*0.9 || avg > float64(mean)*1.1 {
		t.Fatalf("exponential mean drifted: got %v want ~%v", Duration(avg), mean)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Fatalf("String = %q", got)
	}
}

func TestEngineHeapProperty(t *testing.T) {
	// Random schedule/cancel interleavings must always deliver events in
	// non-decreasing time order.
	f := func(seed uint64, n uint8) bool {
		r := NewRand(seed)
		e := NewEngine()
		var fired []Time
		events := make([]Event, int(n)+1)
		for i := range events {
			d := Duration(r.Intn(1000))
			e.Arm(&events[i], e.Now()+d, fn(func() { fired = append(fired, e.Now()) }))
			if r.Intn(4) == 0 && i > 0 {
				e.Cancel(&events[r.Intn(i+1)])
			}
		}
		e.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStepsCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.PostRun(Time(i), fn(func() {}))
	}
	e.Run(0)
	if e.Steps() != 5 {
		t.Fatalf("Steps = %d", e.Steps())
	}
}

func TestPostOrderingInterleavesWithAt(t *testing.T) {
	// Handle-free PostRun events share the sequence counter with Arm
	// events, so same-instant events fire in exact scheduling order
	// regardless of which API scheduled them.
	e := NewEngine()
	var order []int
	var evs [2]Event
	e.Arm(&evs[0], 10, fn(func() { order = append(order, 0) }))
	e.PostRun(10, fn(func() { order = append(order, 1) }))
	e.Arm(&evs[1], 10, fn(func() { order = append(order, 2) }))
	e.PostRunAfter(10, fn(func() { order = append(order, 3) }))
	e.PostRun(5, fn(func() { order = append(order, 4) }))
	e.Run(0)
	want := []int{4, 0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPostAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative PostRunAfter delay")
		}
	}()
	NewEngine().PostRunAfter(-1, fn(func() {}))
}

func TestCancelAmongPostedEvents(t *testing.T) {
	// Cancelling a handled event must not disturb surrounding handle-free
	// entries, across random interleavings that exercise heap removal from
	// interior positions of the 4-ary heap.
	f := func(seed uint64, n uint8) bool {
		r := NewRand(seed)
		e := NewEngine()
		var fired []Time
		events := make([]Event, 0, int(n)+4)
		cancelled := 0
		for i := 0; i < int(n)+4; i++ {
			d := Duration(r.Intn(500))
			if r.Intn(2) == 0 {
				e.PostRunAfter(d, fn(func() { fired = append(fired, e.Now()) }))
			} else {
				events = append(events, Event{})
				e.Arm(&events[len(events)-1], e.Now()+d, fn(func() { fired = append(fired, e.Now()) }))
			}
			if len(events) > 0 && r.Intn(3) == 0 {
				if e.Cancel(&events[r.Intn(len(events))]) {
					cancelled++
				}
			}
		}
		e.Run(0)
		if len(fired)+cancelled != int(n)+4 {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleFiredEventAfterPosts(t *testing.T) {
	// Re-arming an already-fired event (how completion timers behave in
	// internal/cpu) must keep working with value entries in the queue.
	e := NewEngine()
	count := 0
	var ev Event
	e.Arm(&ev, 5, fn(func() { count++ }))
	e.PostRun(7, fn(func() {
		e.Arm(&ev, 12, fn(func() { count += 10 }))
	}))
	e.Run(0)
	if count != 11 {
		t.Fatalf("count = %d, want 11", count)
	}
	if ev.Scheduled() {
		t.Fatal("event still scheduled after firing")
	}
}

func TestEngineRequestStop(t *testing.T) {
	// The stop flag is polled every stopCheckInterval events, so a stop
	// raised mid-batch lets the rest of the batch fire — but never more.
	e := NewEngine()
	var fired int
	for i := Time(1); i <= 3*stopCheckInterval; i++ {
		e.PostRun(i, fn(func() { fired++ }))
	}
	e.PostRun(3, fn(func() { e.RequestStop() }))
	e.Run(0)
	if !e.StopRequested() {
		t.Error("StopRequested = false after RequestStop")
	}
	if fired < 3 {
		t.Errorf("fired = %d, want at least the events before the stop", fired)
	}
	if fired > stopCheckInterval {
		t.Errorf("fired = %d events after a stop at t=3; latency bound is %d", fired, stopCheckInterval)
	}
	if e.Pending() != 3*stopCheckInterval-fired {
		t.Errorf("pending = %d, want the %d unprocessed events", e.Pending(), 3*stopCheckInterval-fired)
	}
	// RunUntil honours the same flag: nothing more runs.
	before := fired
	e.RunUntil(func() bool { return false })
	if fired != before {
		t.Errorf("RunUntil processed %d events after stop", fired-before)
	}
}

func TestEngineRequestStopLatencyBounded(t *testing.T) {
	// A watchdog stop during a long run halts the loop within one
	// stop-check batch: at most stopCheckInterval further events fire.
	e := NewEngine()
	total := 10 * stopCheckInterval
	var fired int
	for i := 0; i < total; i++ {
		e.PostRun(Time(i+1), fn(func() { fired++ }))
	}
	stopAt := 2*stopCheckInterval + 17 // mid-batch, not on a boundary
	e.PostRun(Time(stopAt), fn(func() { e.RequestStop() }))
	e.Run(0)
	if fired < stopAt {
		t.Errorf("fired = %d, want at least %d (events before the stop)", fired, stopAt)
	}
	if fired > stopAt+stopCheckInterval {
		t.Errorf("stop latency exceeded: %d events fired after the stop at %d (bound %d)",
			fired-stopAt, stopAt, stopCheckInterval)
	}
}

func TestEngineRequestStopConcurrent(t *testing.T) {
	// The watchdog scenario: another goroutine stops a self-sustaining
	// event chain. Under -race this also proves RequestStop is the one
	// engine method safe to call cross-goroutine.
	e := NewEngine()
	var chain fn
	chain = func() { e.PostRunAfter(Millisecond, chain) }
	e.PostRunAfter(Millisecond, chain)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(0) // would never return without the stop below
	}()
	e.RequestStop()
	<-done
	if !e.StopRequested() {
		t.Error("StopRequested = false")
	}
}
