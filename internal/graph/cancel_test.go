package graph

import (
	"context"
	"errors"
	"testing"
	"time"
)

func denseFixture(n int) *Graph {
	var es []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (u+v)%2 == 0 {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	for v := 0; v+1 < n; v++ {
		es = append(es, Edge{U: v, V: v + 1})
	}
	return MustFromEdges(n, es)
}

func TestDistanceStatsCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, _, err := denseFixture(40).DistanceStatsCtx(ctx, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestDistanceStatsCtxCancelMidSweep: cancellation lands within a BFS
// level; a big sweep must stop early and report the context error with
// zeroed values, never a partial diameter.
func TestDistanceStatsCtxCancelMidSweep(t *testing.T) {
	g := denseFixture(3000) // 12 lane batches over ~2.25M edges
	for _, workers := range []int{1, 2, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		canceledAt := make(chan time.Time, 1)
		go func() {
			time.Sleep(10 * time.Millisecond)
			canceledAt <- time.Now()
			cancel()
		}()
		diam, avg, err := g.DistanceStatsCtx(ctx, workers)
		overstay := time.Since(<-canceledAt)
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: sweep finished before the cancel signal; grow the fixture", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if diam != 0 || avg != 0 {
			t.Fatalf("workers=%d: canceled sweep returned values (%d, %v)", workers, diam, avg)
		}
		if overstay > 100*time.Millisecond {
			t.Fatalf("workers=%d: sweep returned %v after cancellation, want <= 100ms", workers, overstay)
		}
	}

	// The sweep state is pooled; the next computation must be exact.
	diam, _, err := denseFixture(20).DistanceStatsCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wantDiam, _, err := denseFixture(20).DistanceStatsCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if diam != wantDiam {
		t.Fatalf("post-cancellation diameter = %d, want %d", diam, wantDiam)
	}
}
