package graph

import (
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
)

// TestFanOutExecutesAllExactlyOnce hammers the pool with many more indices
// than workers and asserts its invariant under the race detector: every
// index runs exactly once, none lost and none duplicated, and every worker
// id in [0, workers) runs body once. One worker runs inline on the caller
// and takes the indices in order.
func TestFanOutExecutesAllExactlyOnce(t *testing.T) {
	const total, workers = 20000, 8
	var hits [total]atomic.Int32
	var bodies [workers]atomic.Int32
	FanOut(total, workers, func(w int, next func() (int, bool)) {
		bodies[w].Add(1)
		for {
			i, ok := next()
			if !ok {
				return
			}
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d executed %d times, want exactly 1", i, got)
		}
	}
	for w := range bodies {
		if got := bodies[w].Load(); got != 1 {
			t.Fatalf("worker %d ran body %d times, want 1", w, got)
		}
	}

	var order []int
	inline := false
	FanOut(total, 1, func(w int, next func() (int, bool)) {
		if w != 0 {
			t.Errorf("serial worker id = %d, want 0", w)
		}
		// A body running on the caller has this test on its stack; one
		// running on a goroutine the pool started does not.
		inline = strings.Contains(string(debug.Stack()), "TestFanOutExecutesAllExactlyOnce")
		for {
			i, ok := next()
			if !ok {
				return
			}
			order = append(order, i)
		}
	})
	if !inline {
		t.Fatal("one-worker FanOut ran its body off the calling goroutine")
	}
	if len(order) != total {
		t.Fatalf("serial run took %d indices, want %d", len(order), total)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial run took index %d at position %d, want index order", got, i)
		}
	}

	FanOut(0, workers, func(int, func() (int, bool)) {
		t.Fatal("FanOut over no indices ran a worker")
	})
}
