package graph

import (
	"context"
	"fmt"
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
// distance sweep against the serial one. Every graph has more than two
// lane batches of sources (laneWidth each), so the 8-worker side really
// fans out; three of them are disconnected.
func TestParallelSweepMatchesSerial(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]*Graph{
		"two rings":           rings([]int{laneWidth + 150, laneWidth + 150}, 100, 1),
		"ring, isolated last": rings([]int{2 * laneWidth, 1}, 0, 2),
		"isolated, ring":      rings([]int{1, 2*laneWidth + 50}, 300, 3),
	}
	for seed := uint64(4); seed < 8; seed++ {
		graphs[fmt.Sprintf("chorded ring %d", seed)] = rings([]int{2*laneWidth + 1 + int(seed)*97}, 200, seed)
	}
	for name, g := range graphs {
		wantDiam, wantAvg, err := g.DistanceStatsCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotDiam, gotAvg, err := g.DistanceStatsCtx(ctx, 8)
		if err != nil {
			t.Fatal(err)
		}
		if wantDiam != gotDiam || wantAvg != gotAvg {
			t.Fatalf("%s: parallel stats (%d,%v) != serial (%d,%v)",
				name, gotDiam, gotAvg, wantDiam, wantAvg)
		}
		if gotDiam != g.Diameter() {
			t.Fatalf("%s: parallel diameter = %d, Diameter = %d", name, gotDiam, g.Diameter())
		}
	}
}

// rings lays out one cycle per entry of sizes on consecutive nodes (a
// one-node entry is an isolated node) and adds `chords` seeded edges, each
// inside one cycle. More than one entry makes the graph disconnected.
func rings(sizes []int, chords int, seed uint64) *Graph {
	var ring []int // node -> its cycle
	for r, size := range sizes {
		for i := 0; i < size; i++ {
			ring = append(ring, r)
		}
	}
	n := len(ring)
	b := NewBuilder(n)
	lo := 0
	for _, size := range sizes {
		for v := lo; v+1 < lo+size; v++ {
			b.MustAddEdge(v, v+1)
		}
		if size > 2 {
			b.MustAddEdge(lo, lo+size-1)
		}
		lo += size
	}
	state := seed | 1
	for added := 0; added < chords; {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		u, v := int(state%uint64(n)), int((state>>32)%uint64(n))
		if u != v && ring[u] == ring[v] && !b.HasEdge(u, v) {
			b.MustAddEdge(u, v)
			added++
		}
	}
	return b.Freeze()
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
