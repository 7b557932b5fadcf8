package graph

import "runtime"

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
