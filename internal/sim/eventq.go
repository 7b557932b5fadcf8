package sim

import "container/heap"

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (a stable tie-break keeps runs deterministic).
type Event struct {
	Time int64
	Fn   func()

	seq int64
}

// EventQueue is a deterministic discrete-event scheduler. The zero value is
// ready to use.
type EventQueue struct {
	h    eventHeap
	now  int64
	seqs int64
}

// Now returns the current simulated time.
func (q *EventQueue) Now() int64 { return q.now }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// At schedules fn to run at absolute time t. Scheduling in the past runs at
// the current time instead (events never travel backwards).
func (q *EventQueue) At(t int64, fn func()) {
	if t < q.now {
		t = q.now
	}
	q.seqs++
	heap.Push(&q.h, &Event{Time: t, Fn: fn, seq: q.seqs})
}

// After schedules fn to run d ticks from now.
func (q *EventQueue) After(d int64, fn func()) { q.At(q.now+d, fn) }

// Step runs the earliest pending event and reports whether one ran.
func (q *EventQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	ev := heap.Pop(&q.h).(*Event) //nolint:forcetypeassert // heap only holds *Event
	q.now = ev.Time
	ev.Fn()
	return true
}

// Run drains the queue, stopping early once more than maxEvents events have
// run (pass a negative budget for no limit). It returns the number of
// events executed.
func (q *EventQueue) Run(maxEvents int64) int64 {
	var n int64
	for q.Step() {
		n++
		if maxEvents >= 0 && n >= maxEvents {
			break
		}
	}
	return n
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
