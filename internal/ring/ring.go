// Package ring is the one bounded FIFO behind every "keep the last N":
// the command tracer, the fleet event ring and the streamer's series. A
// Ring is not synchronised; an owner shared between goroutines keeps its
// own lock, so every read is an exact window.
package ring

// Ring retains the newest limit values pushed. Storage grows with use up
// to the limit.
type Ring[T any] struct {
	buf   []T
	limit int
	next  int // index of the oldest value once the ring is full
	total uint64
}

// New returns a ring retaining the newest limit values (limit ≤ 0 acts
// as 1).
func New[T any](limit int) *Ring[T] { return &Ring[T]{limit: max(limit, 1)} }

// Push appends v. Once the ring is full, v overwrites the oldest value,
// which Push returns with evicted set.
func (r *Ring[T]) Push(v T) (oldest T, evicted bool) {
	r.total++
	if n := len(r.buf); n < r.limit {
		if n == cap(r.buf) { // double, but never reserve past the limit
			r.buf = append(make([]T, 0, min(max(2*n, 8), r.limit)), r.buf...)
		}
		r.buf = append(r.buf, v)
		return oldest, false
	}
	oldest, r.buf[r.next] = r.buf[r.next], v
	r.next = (r.next + 1) % r.limit
	return oldest, true
}

// Last returns a copy of the newest n values, oldest first (n ≤ 0 means
// all retained values).
func (r *Ring[T]) Last(n int) []T {
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.buf[(r.next+len(r.buf)-n+i)%len(r.buf)]
	}
	return out
}

// Each calls fn on every retained value in place, oldest first.
func (r *Ring[T]) Each(fn func(*T)) {
	for i := range r.buf {
		fn(&r.buf[(r.next+i)%len(r.buf)])
	}
}

// Len is the number of retained values.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total is the number of values ever pushed, overwritten ones included.
func (r *Ring[T]) Total() uint64 { return r.total }

// Reset discards the retained values; Total keeps counting.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.buf, r.next = r.buf[:0], 0
}
