package flow

import (
	"context"
	"sync"
	"sync/atomic"

	"lhg/internal/graph"
	"lhg/internal/obs"
)

// Work-stealing probe scheduler.
//
// The fan-out drivers distribute a fixed index set [0, total) of probes
// whose costs can be wildly skewed: one near-critical pair can cost a full
// max flow while its neighbors early-exit after one search. A single shared
// counter balances load but destroys locality (adjacent probe targets share
// BFS frontiers and cache lines in the CSR graph); a static split keeps
// locality but strands workers behind one expensive probe. The stealer
// keeps both properties: every worker owns a contiguous range it consumes
// front-to-back (locality), and a worker that drains its range steals the
// top half of the largest remaining victim range (balance). Ranges are
// packed (lo,hi) into one uint64 and moved by CAS, so both the owner's pop
// and a thief's split are lock-free and O(1).
//
// Because the task set is fixed — no probe enqueues another probe — an
// empty pass over all victims means the work is genuinely done, so workers
// never park: termination needs no handshake beyond the final nil fetch.
var (
	mStealAttempts = obs.NewCounter("flow.steal.attempts")
	mStealHits     = obs.NewCounter("flow.steal.hits")
	mStealProbes   = obs.NewCounter("flow.steal.probes")
)

// stealQueue is the per-sweep scheduler state: one packed (lo,hi) range per
// worker. Padding keeps each slot on its own cache line so an owner's pop
// never false-shares with a neighbor's steal.
type stealQueue struct {
	slots []paddedRange
}

type paddedRange struct {
	r atomic.Uint64
	_ [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(uint32(hi)) }
func unpackRange(r uint64) (lo, hi int) {
	return int(r >> 32), int(uint32(r))
}

// newStealQueue splits [0, total) into one contiguous range per worker.
// The split is even (remainder spread over the first ranges), which is the
// same initial assignment a static partition would make — stealing only
// changes who finishes the tail.
func newStealQueue(total, workers int) *stealQueue {
	q := &stealQueue{slots: make([]paddedRange, workers)}
	chunk, rem := total/workers, total%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		q.slots[w].r.Store(packRange(lo, hi))
		lo = hi
	}
	return q
}

// next returns the next probe index for worker w, stealing when w's own
// range is empty. ok=false means the whole queue is drained.
func (q *stealQueue) next(w int) (idx int, ok bool) {
	// Fast path: pop the front of our own range.
	for {
		r := q.slots[w].r.Load()
		lo, hi := unpackRange(r)
		if lo >= hi {
			break
		}
		if q.slots[w].r.CompareAndSwap(r, packRange(lo+1, hi)) {
			return lo, true
		}
	}
	return q.steal(w)
}

// steal scans for the victim with the most remaining work and takes the
// top half of its range (the half the owner would reach last, preserving
// the owner's locality). It retries the scan until every slot reads empty
// in one pass, which for a fixed task set is a stable termination signal:
// a lost CAS race means someone else made progress.
func (q *stealQueue) steal(w int) (idx int, ok bool) {
	for {
		mStealAttempts.Inc()
		victim, victimLoad := -1, 0
		var victimRange uint64
		for v := range q.slots {
			if v == w {
				continue
			}
			r := q.slots[v].r.Load()
			lo, hi := unpackRange(r)
			if hi-lo > victimLoad {
				victim, victimLoad, victimRange = v, hi-lo, r
			}
		}
		if victim < 0 {
			return 0, false
		}
		lo, hi := unpackRange(victimRange)
		mid := lo + (hi-lo+1)/2 // thief takes [mid, hi); a 1-element range moves whole
		if mid == hi {
			mid = lo
		}
		if !q.slots[victim].r.CompareAndSwap(victimRange, packRange(lo, mid)) {
			continue // raced with the owner or another thief; rescan
		}
		mStealHits.Inc()
		// Keep one index, park the rest as our own range.
		q.slots[w].r.Store(packRange(mid+1, hi))
		return mid, true
	}
}

// runStealing fans probes [0, total) across `workers` goroutines scheduled
// by the work stealer (workers <= 0 means GOMAXPROCS). Each worker calls
// `body` once; body pulls indices from next() until it returns ok=false
// (queue drained or ctx canceled) and owns whatever per-worker state it
// needs. spanName labels the per-worker trace spans. With one worker the
// body runs inline on the caller as worker 0 and next() counts 0, 1, …
// in order — no goroutine, no queue, no worker span. runStealing always
// joins every worker before returning.
func runStealing(ctx context.Context, spanName string, total, workers int, body func(w int, next func() (int, bool))) {
	if total == 0 {
		return
	}
	workers = graph.ClampWorkers(workers, total)
	if workers == 1 {
		i := 0
		body(0, func() (int, bool) {
			if ctx.Err() != nil || i >= total {
				return 0, false
			}
			i++
			return i - 1, true
		})
		return
	}
	q := newStealQueue(total, workers)
	mWorkersSpawned.Add(int64(workers))
	var executed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer tWorkerBusy.Start().End()
			wsp := workerSpan(ctx, spanName, w)
			defer wsp.End()
			done := 0
			body(w, func() (int, bool) {
				if ctx.Err() != nil {
					return 0, false
				}
				idx, ok := q.next(w)
				if ok {
					done++
					probeProgress(wsp, done-1, total)
				}
				return idx, ok
			})
			executed.Add(int64(done))
		}(w)
	}
	wg.Wait()
	mStealProbes.Add(executed.Load())
}
