package obs

import (
	"sync/atomic"
	"time"
)

// Timer accumulates phase durations: how many times a phase ran and the
// total nanoseconds spent inside it. The caller measures each duration
// (typically from a trace.TimedSpan) and records it with Observe.
type Timer struct {
	name  string
	count atomic.Int64
	ns    atomic.Int64
}

// Observe records one externally measured duration.
func (t *Timer) Observe(d time.Duration) {
	if !enabled.Load() {
		return
	}
	t.count.Add(1)
	t.ns.Add(int64(d))
}

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Name returns the registered metric name.
func (t *Timer) Name() string { return t.name }
