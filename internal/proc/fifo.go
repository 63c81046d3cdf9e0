package proc

// FIFO is a first-in, first-out queue that keeps its storage when it
// pops: a ring over a power-of-two buffer that grows only when full. A
// list popped with x = x[1:] drops the slot it pops from the front of
// its backing array, so the next append after a drain reallocates; a
// blocked-sender list or a shell's pending commands then allocate once
// per message or per command. A FIFO at a steady depth allocates
// nothing. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the front element. It panics on an empty
// queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("proc: Pop from empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the buffer (minimum 4 slots), unwrapping the queue to
// the front of the new one.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
