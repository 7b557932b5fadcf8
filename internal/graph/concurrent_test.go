package graph

import (
	"context"
	"sync"
	"testing"
)

// TestFrozenGraphConcurrentReaders hammers one frozen graph from 8
// goroutines running every read-only query. Under `go test -race` this
// verifies the central claim of the freeze design: a frozen Graph is safe
// to share without cloning or locks.
func TestFrozenGraphConcurrentReaders(t *testing.T) {
	g := randomGraph(64, 0xfeedface)
	want := g.Diameter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				if d := g.Diameter(); d != want {
					t.Errorf("worker %d: Diameter = %d, want %d", w, d, want)
					return
				}
				g.BFSFrom(w % g.Order())
				g.Connected()
				g.Components()
				g.Edges()
				g.EachEdge(func(u, v int) {})
				g.Neighbors(w % g.Order())
				g.Degrees()
				g.MinDegree()
				g.MaxDegree()
				g.BFSTree(w % g.Order())
				g.WithoutEdge(0, 1)
			}
		}(w)
	}
	wg.Wait()
}

// TestParallelSweepMatchesSerial cross-checks the fanned-out all-sources
// distance sweep against the serial one on a batch of random graphs,
// including disconnected ones.
func TestParallelSweepMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed < 12; seed++ {
		g := randomGraph(40, seed)
		wantDiam, wantAvg, err := g.DistanceStatsCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotDiam, gotAvg, err := g.DistanceStatsCtx(ctx, 8)
		if err != nil {
			t.Fatal(err)
		}
		if wantDiam != gotDiam || wantAvg != gotAvg {
			t.Fatalf("seed %d: parallel stats (%d,%v) != serial (%d,%v)",
				seed, gotDiam, gotAvg, wantDiam, wantAvg)
		}
		if gotDiam != g.Diameter() {
			t.Fatalf("seed %d: parallel diameter = %d, Diameter = %d", seed, gotDiam, g.Diameter())
		}
	}
}

func TestClampWorkers(t *testing.T) {
	if got := ClampWorkers(1, 100); got != 1 {
		t.Fatalf("ClampWorkers(1,100) = %d, want 1", got)
	}
	if got := ClampWorkers(4, 2); got != 2 {
		t.Fatalf("ClampWorkers(4,2) = %d, want item cap 2", got)
	}
	if got := ClampWorkers(8, 100); got != 8 {
		t.Fatalf("ClampWorkers(8,100) = %d, want explicit request honored", got)
	}
	if got := ClampWorkers(0, 100); got < 1 {
		t.Fatalf("ClampWorkers(0,100) = %d, want >= 1", got)
	}
	if got := ClampWorkers(-5, 0); got < 1 {
		t.Fatalf("ClampWorkers(-5,0) = %d, want >= 1", got)
	}
}
