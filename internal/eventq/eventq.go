// Package eventq is the simulated-time event queue of the discrete-event
// loops in internal/serve and internal/sched. Events pop in (time, push
// order): earliest first, and events at equal times in the order they were
// pushed, which keeps a simulation deterministic.
//
// The queue is a binary min-heap over a typed slice, so an event is never
// boxed through an interface. Its sift-up and sift-down make the same
// comparisons and swaps as container/heap's up and down, with the
// comparator a.time < b.time, then b.time < a.time, then push order. A NaN
// time compares equal to every time under that comparator, so the pop order
// depends on the heap's exact moves; matching container/heap's keeps it
// identical to a container/heap queue for every input.
package eventq

// item is one queued event with its time and push sequence number.
type item[T any] struct {
	timeS float64
	seq   uint64
	v     T
}

// Queue is a min-heap of events of type T ordered by (time, push order).
// The zero value is an empty queue ready to use.
type Queue[T any] struct {
	items []item[T]
	seq   uint64
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push queues v at simulated time timeS.
func (q *Queue[T]) Push(timeS float64, v T) {
	q.items = append(q.items, item[T]{timeS: timeS, seq: q.seq, v: v})
	q.seq++
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest event and its time. It panics on an
// empty queue.
func (q *Queue[T]) Pop() (float64, T) {
	n := len(q.items) - 1
	q.items[0], q.items[n] = q.items[n], q.items[0]
	q.down(0, n)
	it := q.items[n]
	q.items[n] = item[T]{} // drop references held by the popped event
	q.items = q.items[:n]
	return it.timeS, it.v
}

// less orders events by time, then by push order.
func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.timeS < b.timeS {
		return true
	}
	if b.timeS < a.timeS {
		return false
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		j = i
	}
}

func (q *Queue[T]) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
}
