package flow

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"lhg/internal/graph"
	"lhg/internal/obs"
)

// The work-stealing scheduler's contract: every index in [0, total) is
// executed exactly once regardless of worker count, skew or steal races;
// a worker stranded behind expensive probes loses its tail to thieves
// instead of stalling the sweep; and because each index gets exactly one
// probe no matter who runs it, probe-counter totals are identical for
// serial and parallel sweeps.

func withFlowSink(t *testing.T) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
}

// TestStealExecutesAllExactlyOnce hammers the scheduler with many more
// tasks than workers and asserts the fundamental invariant under the race
// detector: exactly-once execution, no lost and no duplicated indices.
func TestStealExecutesAllExactlyOnce(t *testing.T) {
	const total, workers = 20000, 8
	var hits [total]atomic.Int32
	runStealing(context.Background(), "flow.test.worker", total, workers,
		func(w int, next func() (int, bool)) {
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
}

// TestStealSkewedCostsNoStarvation gives worker 0 a contiguous prefix of
// pathologically slow tasks (the static split would strand it for ~100x
// the sweep time) and asserts that thieves lift its tail: the sweep
// completes with real steal traffic, every worker goes through the busy
// timer, and no index is lost.
func TestStealSkewedCostsNoStarvation(t *testing.T) {
	withFlowSink(t)
	const total, workers = 400, 4
	busy0 := tWorkerBusy.Count()
	var ran [total]atomic.Int32
	var byOthers atomic.Int32
	runStealing(context.Background(), "flow.test.worker", total, workers,
		func(w int, next func() (int, bool)) {
			for {
				i, ok := next()
				if !ok {
					return
				}
				ran[i].Add(1)
				if i < total/workers {
					// Worker 0's initial range: expensive probes.
					time.Sleep(200 * time.Microsecond)
					if w != 0 {
						byOthers.Add(1)
					}
				}
			}
		})
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d executed %d times, want exactly 1", i, got)
		}
	}
	if hits := mStealHits.Value(); hits == 0 {
		t.Fatal("skewed sweep recorded zero steals: the stranded tail was not rebalanced")
	}
	if byOthers.Load() == 0 {
		t.Fatal("no slow probe from worker 0's range ran on another worker")
	}
	if got := tWorkerBusy.Count() - busy0; got != workers {
		t.Fatalf("worker busy timer observed %d workers, want %d (an unobserved worker is an unaccounted stall)", got, workers)
	}
}

// skewedFixture is a K4 sharing one vertex with a long cycle: degrees are
// wildly uneven, the graph is irregular, and λ = κ = 2 — so the minimality
// sweep must issue real probes for the K4-internal edges (endpoint degrees
// exceed both bars) while the cycle edges take the degree shortcut.
func skewedFixture() *graph.Graph {
	b := graph.NewBuilder(24)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.MustAddEdge(u, v)
		}
	}
	for v := 3; v < 23; v++ {
		b.MustAddEdge(v, v+1)
	}
	b.MustAddEdge(23, 0)
	return b.Freeze()
}

// TestStealProbeTotalsSerialParallel pins the probe-count determinism the
// scheduler preserves: each task index issues the same flows no matter
// which worker executes it, so the flow.maxflow.probes total of a parallel
// minimality sweep equals the serial one exactly.
func TestStealProbeTotalsSerialParallel(t *testing.T) {
	g := skewedFixture()
	kappa, lambda := kappaOf(g), lambdaOf(g)
	if kappa != 2 || lambda != 2 {
		t.Fatalf("fixture κ=%d λ=%d, want 2/2", kappa, lambda)
	}
	withFlowSink(t)
	edges := g.Edges()

	count := func(workers int) (int64, []bool) {
		obs.Reset()
		out, err := EdgesRemovable(context.Background(), g, edges, kappa, lambda, workers)
		if err != nil {
			t.Fatal(err)
		}
		return mMaxflowProbes.Value(), out
	}
	serialProbes, serialOut := count(1)
	if serialProbes == 0 {
		t.Fatal("serial sweep issued no probes; fixture no longer exercises the flow path")
	}
	for _, workers := range []int{2, 4, 8} {
		probes, out := count(workers)
		if probes != serialProbes {
			t.Fatalf("workers=%d issued %d probes, serial issued %d", workers, probes, serialProbes)
		}
		for i := range out {
			if out[i] != serialOut[i] {
				t.Fatalf("workers=%d: removable[%d]=%t diverged from serial %t", workers, i, out[i], serialOut[i])
			}
		}
	}
}
