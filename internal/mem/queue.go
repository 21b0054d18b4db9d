package mem

// Queue is a bounded FIFO. A capacity of 0 or less makes the queue
// unbounded, which the ideal memory systems (P∞, P_DRAM) use to remove
// structural limits. The zero value is an empty unbounded queue.
//
// The implementation avoids integer division on the hot paths: indices
// wrap with a compare-and-subtract instead of a modulo, since every
// simulated queue is peeked or scanned far more often than it is resized.
type Queue[T any] struct {
	buf      []T
	head     int
	size     int
	capacity int
}

// NewQueue returns a FIFO holding at most capacity entries
// (unbounded if capacity <= 0).
func NewQueue[T any](capacity int) *Queue[T] {
	q := &Queue[T]{capacity: capacity}
	if capacity > 0 {
		q.buf = make([]T, capacity)
	}
	return q
}

// wrap reduces an index in [0, 2*len(buf)) into the ring.
func (q *Queue[T]) wrap(i int) int {
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return q.size }

// Cap returns the configured capacity (0 when unbounded).
func (q *Queue[T]) Cap() int { return q.capacity }

// Empty reports whether the queue holds no entries.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Full reports whether the queue cannot accept another entry.
// Unbounded queues are never full.
func (q *Queue[T]) Full() bool {
	return q.capacity > 0 && q.size >= q.capacity
}

// Free returns the number of entries that can still be pushed.
// Unbounded queues report a large positive number.
func (q *Queue[T]) Free() int {
	if q.capacity <= 0 {
		return int(^uint(0) >> 1)
	}
	return q.capacity - q.size
}

// Push appends v and reports whether it was accepted.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	if len(q.buf) == q.size { // unbounded growth
		q.grow()
	}
	q.buf[q.wrap(q.head+q.size)] = v
	q.size++
	return true
}

// Pop removes and returns the oldest entry.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release references for the garbage collector
	q.head = q.wrap(q.head + 1)
	q.size--
	return v, true
}

// Peek returns the oldest entry without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

func (q *Queue[T]) grow() {
	next := make([]T, max(4, 2*len(q.buf)))
	for i := 0; i < q.size; i++ {
		next[i] = q.buf[q.wrap(q.head+i)]
	}
	q.buf = next
	q.head = 0
}
