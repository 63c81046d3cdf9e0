package proc

import (
	"testing"

	"repro/internal/sim"
)

func TestFIFOPopsInPushOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	for i := 0; i < 10; i++ {
		if q.Len() != 10-i {
			t.Fatalf("Len = %d before pop %d, want %d", q.Len(), i, 10-i)
		}
		if v := q.Pop(); v != i {
			t.Fatalf("pop %d = %d", i, v)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestFIFOInterleaved checks pushes and pops in a random interleaving
// against a plain slice, so the ring wraps and grows while wrapped.
func TestFIFOInterleaved(t *testing.T) {
	var q FIFO[int]
	var want []int
	r := sim.NewRand(1)
	next := 0
	for step := 0; step < 5000; step++ {
		if len(want) == 0 || r.Float64() < 0.55 {
			q.Push(next)
			want = append(want, next)
			next++
		} else {
			v := q.Pop()
			if v != want[0] {
				t.Fatalf("step %d: pop = %d, want %d", step, v, want[0])
			}
			want = want[1:]
		}
		if q.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(want))
		}
	}
	for len(want) > 0 {
		if v := q.Pop(); v != want[0] {
			t.Fatalf("drain: pop = %d, want %d", v, want[0])
		}
		want = want[1:]
	}
}

func TestFIFOSteadyDepthAllocatesNothing(t *testing.T) {
	var q FIFO[*Task]
	tasks := make([]*Task, 6)
	for i := range tasks {
		tasks[i] = &Task{ID: TaskID(i)}
	}
	for _, tk := range tasks[:5] { // warm up to a depth of five
		q.Push(tk)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(tasks[i%len(tasks)])
		q.Pop()
		i++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per push and pop at a steady depth", allocs)
	}
	// A drained queue refills without allocating either.
	for q.Len() > 0 {
		q.Pop()
	}
	if allocs := testing.AllocsPerRun(100, func() {
		q.Push(tasks[0])
		q.Pop()
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per push and pop after draining", allocs)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Pop()
}
