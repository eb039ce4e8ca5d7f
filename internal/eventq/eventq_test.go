package eventq

import (
	"container/heap"
	"math"
	"testing"

	"dsenergy/internal/xrand"
)

// refEvent and refHeap are the container/heap event queue that serve and
// sched each carried before this package: events ordered by (time, seq),
// with seq the insertion order. They are the reference the typed queue must
// match pop for pop.
type refEvent struct {
	timeS float64
	seq   int
	id    int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].timeS < h[j].timeS {
		return true
	}
	if h[j].timeS < h[i].timeS {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// randomTime draws from a small pool so ties are frequent, with signed
// zeros, infinities and NaNs of two payloads among them.
func randomTime(r *xrand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.NaN()
	case 3:
		return math.Float64frombits(0x7ff8dead00000000)
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	default:
		return float64(r.Intn(8)) * 0.25
	}
}

func TestPopOrderMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		r := xrand.New(uint64(trial))
		var q Queue[int]
		var ref refHeap
		seq := 0
		for op := 0; op < 400; op++ {
			// Push with probability 3/5 so the queue grows and drains.
			if ref.Len() == 0 || r.Intn(5) < 3 {
				tm := randomTime(r)
				q.Push(tm, op)
				heap.Push(&ref, refEvent{timeS: tm, seq: seq, id: op})
				seq++
				continue
			}
			peekT, ok := q.PeekTime()
			gotT, got := q.Pop()
			want := heap.Pop(&ref).(refEvent)
			if got != want.id || math.Float64bits(gotT) != math.Float64bits(want.timeS) {
				t.Fatalf("trial %d op %d: popped (%v, %d), container/heap popped (%v, %d)",
					trial, op, gotT, got, want.timeS, want.id)
			}
			if !ok || math.Float64bits(peekT) != math.Float64bits(gotT) {
				t.Fatalf("trial %d op %d: PeekTime (%v, %v) before a pop of time %v", trial, op, peekT, ok, gotT)
			}
		}
		for ref.Len() > 0 {
			_, got := q.Pop()
			if want := heap.Pop(&ref).(refEvent); got != want.id {
				t.Fatalf("trial %d drain: popped %d, container/heap popped %d", trial, got, want.id)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d events left after the reference drained", trial, q.Len())
		}
		if _, ok := q.PeekTime(); ok {
			t.Fatalf("trial %d: PeekTime reports an event on an empty queue", trial)
		}
	}
}

func TestTiesPopInPushOrder(t *testing.T) {
	var q Queue[string]
	q.Push(2, "c")
	q.Push(1, "a")
	q.Push(2, "d")
	q.Push(1, "b")
	var got string
	for q.Len() > 0 {
		_, v := q.Pop()
		got += v
	}
	if got != "abcd" {
		t.Errorf("pop order %q, want abcd", got)
	}
}

func TestSteadyStatePushPopAllocatesNothing(t *testing.T) {
	type event struct {
		kind int
		p    *int
	}
	var q Queue[event]
	for i := 0; i < 64; i++ {
		q.Push(float64(i), event{kind: i})
	}
	now := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		q.Push(now+64, event{kind: 1})
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("steady-state Push+Pop allocates %v times, want 0", allocs)
	}
}
