package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ClampWorkers bounds a worker count to [1, min(requested, items)]; zero
// or negative requests mean "use GOMAXPROCS". An explicit positive request
// is honored even beyond the core count — oversubscription costs little
// for these CPU-bound pools and keeps worker-count semantics (and race
// tests) deterministic across machines. The flow and check layers use it
// to size their verification pools.
func ClampWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if items > 0 && workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// FanOut is the one worker pool of the CPU sweeps: it runs body once per
// worker over the indices [0, total), with workers clamped by
// ClampWorkers. Every worker pulls indices from one shared atomic counter
// through next, which hands out each index exactly once, in increasing
// order, and reports ok=false once all are taken. A worker stops by
// returning from body. The caller runs worker 0 itself and workers−1
// goroutines run the rest; FanOut joins them all before it returns. With
// one worker body runs inline and next counts 0, 1, … in order, so a
// serial sweep starts no goroutine. A shared counter, rather than
// per-worker ranges, is enough: the sweeps' items are probes or source
// batches that each cost far more than one contended atomic add.
func FanOut(total, workers int, body func(w int, next func() (int, bool))) {
	if total <= 0 {
		return
	}
	workers = ClampWorkers(workers, total)
	var counter atomic.Int64
	next := func() (int, bool) {
		i := int(counter.Add(1)) - 1
		return i, i < total
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, next)
		}()
	}
	body(0, next)
	wg.Wait()
}
