package sim

// Queue is a bounded FIFO used for modelling request buffers with
// backpressure (e.g. the write-request FIFO in each GUPS port). A
// capacity of zero means unbounded.
type Queue[T any] struct {
	items []T
	head  int
	cap   int
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{cap: capacity}
}

// Len reports the current occupancy.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Full reports whether a Push would be rejected.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.Len() >= q.cap }

// Push appends v, reporting false (and dropping nothing) if full.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, v)
	return true
}

// Pop removes and returns the oldest element. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero // release for GC
	q.head++
	// Compact once the dead prefix dominates, keeping amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items[q.head], true
}
