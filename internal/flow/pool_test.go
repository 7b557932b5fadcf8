package flow

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"lhg/internal/graph"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

// The probe sweeps' use of the pool (runPool over graph.FanOut, whose
// exactly-once contract is tested in internal/graph): a worker stuck
// behind expensive probes does not strand the rest of the sweep, every
// worker runs under its own trace span, and because each index gets
// exactly one probe no matter who runs it, probe-counter totals are
// identical for serial and parallel sweeps.

func withFlowSink(t *testing.T) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
}

// TestSweepSkewedCostsNoStarvation makes the first quarter of the
// indices pathologically slow and asserts that they spread over the pool
// instead of piling up on the caller's worker: some run on other workers,
// every worker records its own span, and no index is lost.
func TestSweepSkewedCostsNoStarvation(t *testing.T) {
	trace.Enable()
	t.Cleanup(trace.Disable)
	rec := trace.NewRecorder(1024)
	ctx, root := trace.StartRoot(context.Background(), "flow.test.sweep", trace.WithRecorder(rec))
	const total, workers = 400, 4
	var ran [total]atomic.Int32
	var byOthers atomic.Int32
	runPool(ctx, "flow.test.worker", total, workers,
		func(w int, next func() (int, bool)) {
			for {
				i, ok := next()
				if !ok {
					return
				}
				ran[i].Add(1)
				if i < total/workers {
					// The first quarter: expensive probes.
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
	if byOthers.Load() == 0 {
		t.Fatal("no slow probe ran on a worker other than the caller's")
	}
	root.End()
	spans := 0
	for _, r := range rec.Snapshot() {
		if r.Kind == trace.KindSpan && r.Name == "flow.test.worker" {
			spans++
		}
	}
	if spans != workers {
		t.Fatalf("recorded %d worker spans, want %d (an unrecorded worker is an unaccounted stall)", spans, workers)
	}
}

// skewedFixture is a K4 sharing one vertex with a long cycle: degrees are
// wildly uneven, the graph is irregular, and λ = κ = 2 — so the minimality
// sweep probes both K4-internal edges, whose endpoint degrees exceed both
// bars, and cycle edges, whose endpoints have degree 2.
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

// TestSweepProbeTotalsSerialParallel pins the probe-count determinism the
// pool preserves: each task index issues the same flows no matter
// which worker executes it, so the flow.maxflow.probes total of a parallel
// minimality sweep equals the serial one exactly.
func TestSweepProbeTotalsSerialParallel(t *testing.T) {
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
