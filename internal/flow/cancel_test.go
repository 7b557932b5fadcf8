package flow

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// cancelLatency runs campaign, cancels its context after delay, and returns
// the error plus how long the campaign overstayed the cancellation signal.
func cancelLatency(t *testing.T, delay time.Duration, campaign func(context.Context) error) (error, time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceledAt := make(chan time.Time, 1)
	go func() {
		time.Sleep(delay)
		canceledAt <- time.Now()
		cancel()
	}()
	err := campaign(ctx)
	returned := time.Now()
	return err, returned.Sub(<-canceledAt)
}

// TestVertexConnectivityCtxCancelsPromptly is the 100ms regression bound:
// cancellation is polled between augmenting-path iterations, so even on a
// dense graph whose campaign runs for seconds the call must return within
// 100ms of the signal, for both the serial and the parallel driver.
func TestVertexConnectivityCtxCancelsPromptly(t *testing.T) {
	// Complete graphs have no non-adjacent probe pairs, so κ needs a dense
	// graph that still leaves the Esfahanian–Hakimi sweep real work.
	g := completeBipartite(130, 130) // serial campaign runs for several seconds
	for _, workers := range []int{1, 4} {
		err, overstay := cancelLatency(t, 30*time.Millisecond, func(ctx context.Context) error {
			_, err := VertexConnectivity(ctx, g, workers)
			return err
		})
		if err == nil {
			t.Fatalf("workers=%d: campaign finished before the cancel signal; grow the fixture", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if overstay > 100*time.Millisecond {
			t.Fatalf("workers=%d: campaign returned %v after cancellation, want <= 100ms", workers, overstay)
		}
	}
}

func TestEdgeConnectivityCtxCancelsPromptly(t *testing.T) {
	// A complete graph is dominated by one node, which would give the
	// shared-λ pass zero probes; the bipartite fixture keeps a whole side
	// in the dominating set so the campaign stays long.
	g := completeBipartite(250, 250)
	for _, workers := range []int{1, 4} {
		err, overstay := cancelLatency(t, 30*time.Millisecond, func(ctx context.Context) error {
			_, err := EdgeConnectivity(ctx, g, workers)
			return err
		})
		if err == nil {
			t.Fatalf("workers=%d: campaign finished before the cancel signal; grow the fixture", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if overstay > 100*time.Millisecond {
			t.Fatalf("workers=%d: campaign returned %v after cancellation, want <= 100ms", workers, overstay)
		}
	}
}

// TestCtxAPIPreCanceled: an already-canceled context must short-circuit
// before any probe runs.
func TestCtxAPIPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := complete(40)
	if _, err := VertexConnectivity(ctx, g, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("VertexConnectivity: err = %v, want context.Canceled", err)
	}
	if _, err := EdgeConnectivity(ctx, g, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("EdgeConnectivity: err = %v, want context.Canceled", err)
	}
	if _, err := EdgesRemovable(ctx, g, g.Edges(), 39, 39, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("EdgesRemovable: err = %v, want context.Canceled", err)
	}
}

// TestCancelDoesNotLeakWorkers: a canceled parallel campaign must wind down
// its worker pool completely.
func TestCancelDoesNotLeakWorkers(t *testing.T) {
	g := completeBipartite(130, 130)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		if _, err := VertexConnectivity(ctx, g, 8); err == nil {
			t.Fatal("campaign finished before the cancel signal; grow the fixture")
		}
		cancel()
	}
	// Workers exit after wg.Wait in the driver, so any surplus here is a
	// real leak, modulo runtime background noise.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after canceled campaigns", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPooledNetworksSurviveCancellation: a canceled campaign returns its
// flow networks to the pool mid-flight; later campaigns drawing the same
// networks must still compute exact values.
func TestPooledNetworksSurviveCancellation(t *testing.T) {
	big := complete(120)
	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		_, _ = VertexConnectivity(ctx, big, 4) // poisoned run: canceled mid-sweep
		cancel()

		// Correctness after reuse, across several shapes and both drivers.
		if got, err := VertexConnectivity(context.Background(), completeBipartite(5, 7), 1+round%2*3); err != nil || got != 5 {
			t.Fatalf("round %d: κ(K_{5,7}) = %d, %v; want 5", round, got, err)
		}
		if got, err := EdgeConnectivity(context.Background(), cycle(9), 1); err != nil || got != 2 {
			t.Fatalf("round %d: λ(C_9) = %d, %v; want 2", round, got, err)
		}
		if got, err := VertexConnectivity(context.Background(), twoTriangles(), 2); err != nil || got != 1 {
			t.Fatalf("round %d: κ(two triangles) = %d, %v; want 1", round, got, err)
		}
	}
}

// TestCtxWrappersMatchLegacyAPI pins the single-edge, ctx-less query to
// its ctx driver: EdgeIsRemovable must agree exactly with the batch
// EdgesRemovable on every edge, and the exact EdgeCut/VertexCut values
// must agree with the ctx-first early-exit EdgeCutAtLeast/VertexCutAtLeast
// thresholds on both sides of the cut.
func TestCtxWrappersMatchLegacyAPI(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 5; seed++ {
		g := randomGraph(12, seed)
		kappa, lambda := kappaOf(g), lambdaOf(g)
		edges := g.Edges()
		viaCtx, err := EdgesRemovable(ctx, g, edges, kappa, lambda, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range edges {
			if legacy := EdgeIsRemovable(g, e, kappa, lambda); legacy != viaCtx[i] {
				t.Fatalf("seed %d edge %v: EdgeIsRemovable = %t, EdgesRemovable = %t", seed, e, legacy, viaCtx[i])
			}
		}
		for s := 0; s < g.Order(); s++ {
			for u := s + 1; u < g.Order(); u++ {
				cut, err := EdgeCut(g, s, u)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []int{cut, cut + 1} {
					if ok, err := EdgeCutAtLeast(ctx, g, s, u, c); err != nil || ok != (cut >= c) {
						t.Fatalf("seed %d pair (%d,%d): EdgeCutAtLeast(%d) = %t, %v; EdgeCut = %d", seed, s, u, c, ok, err, cut)
					}
				}
				if g.HasEdge(s, u) {
					continue
				}
				vcut, err := VertexCut(g, s, u)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []int{vcut, vcut + 1} {
					if ok, err := VertexCutAtLeast(ctx, g, s, u, c); err != nil || ok != (vcut >= c) {
						t.Fatalf("seed %d pair (%d,%d): VertexCutAtLeast(%d) = %t, %v; VertexCut = %d", seed, s, u, c, ok, err, vcut)
					}
				}
			}
		}
	}
}
