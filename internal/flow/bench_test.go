package flow

import (
	"fmt"
	"testing"

	"lhg/internal/graph"
)

// Ablation benches for the design choices called out in DESIGN.md:
//
//  1. Esfahanian–Hakimi pair selection vs the naive all-non-adjacent-pairs
//     sweep for global vertex connectivity.
//  2. Early-exit (bounded) max flow vs exact flow for threshold queries.

var benchSink int

// naiveVertexConnectivity computes κ by running a max flow for every
// non-adjacent pair — the textbook definition, quadratic in n. The pairs
// share one split-node arena, re-armed per pair with no extra sources, so
// each flow is the plain s-t value (early-exiting at the running
// minimum).
func naiveVertexConnectivity(g *graph.Graph) int {
	n := g.Order()
	if n < 2 || !g.Connected() {
		return 0
	}
	nw := getNetwork(2 * n)
	defer putNetwork(nw)
	nw.buildVertexBase(g, n+1, noEdge)
	best := n - 1
	found := false
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if g.HasEdge(s, t) {
				continue
			}
			found = true
			nw.armVertexPair(s, t)
			best = min(best, nw.maxflow(2*s+1, 2*t, best))
		}
	}
	if !found {
		return n - 1 // complete graph
	}
	return best
}

func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	// 4-regular circulant: connected, κ=4, plenty of non-adjacent pairs.
	bld := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		bld.MustAddEdge(v, (v+1)%n)
		bld.MustAddEdge(v, (v+2)%n)
	}
	return bld.Freeze()
}

func BenchmarkVertexConnectivityEsfahanianHakimi(b *testing.B) {
	for _, n := range []int{32, 96} {
		g := benchGraph(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = kappaOf(g)
			}
		})
	}
}

func BenchmarkVertexConnectivityNaiveAllPairs(b *testing.B) {
	for _, n := range []int{32, 96} {
		g := benchGraph(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = naiveVertexConnectivity(g)
			}
		})
	}
}

// TestNaiveMatchesEsfahanianHakimi keeps the ablation baseline honest.
func TestNaiveMatchesEsfahanianHakimi(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g := randomGraph(10, seed)
		if got, want := naiveVertexConnectivity(g), kappaOf(g); got != want {
			t.Fatalf("seed %d: naive κ=%d, EH κ=%d", seed, got, want)
		}
	}
}
