package flow

import (
	"context"
	"testing"

	"lhg/internal/graph"
)

// kappaWith, lambdaWith and restrictedOf run the sweeps uncanceled with
// the given worker budget; kappaOf and lambdaOf are the serial runs the
// oracle tests compare against. Background contexts cannot fail, so an
// error here is a bug in the driver.
func kappaWith(g *graph.Graph, workers int) int {
	return must(VertexConnectivity(context.Background(), g, workers, NoHints))
}

func lambdaWith(g *graph.Graph, workers int) int {
	return must(EdgeConnectivity(context.Background(), g, workers, NoHints))
}

func restrictedOf(g *graph.Graph, workers int) int {
	return must(RestrictedEdgeConnectivity(context.Background(), g, workers))
}

func kappaOf(g *graph.Graph) int  { return kappaWith(g, 1) }
func lambdaOf(g *graph.Graph) int { return lambdaWith(g, 1) }

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestParallelConnectivityMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := randomGraph(14, seed)
		wantK := kappaOf(g)
		wantL := lambdaOf(g)
		for _, workers := range []int{2, 8} {
			if got := kappaWith(g, workers); got != wantK {
				t.Fatalf("seed %d workers %d: parallel κ=%d, serial κ=%d", seed, workers, got, wantK)
			}
			if got := lambdaWith(g, workers); got != wantL {
				t.Fatalf("seed %d workers %d: parallel λ=%d, serial λ=%d", seed, workers, got, wantL)
			}
		}
	}
}

func TestParallelConnectivityDegenerate(t *testing.T) {
	if got := kappaWith(graph.New(1), 4); got != 0 {
		t.Fatalf("singleton κ = %d, want 0", got)
	}
	if got := lambdaWith(graph.New(4), 4); got != 0 {
		t.Fatalf("disconnected λ = %d, want 0", got)
	}
	if got := kappaWith(complete(5), 4); got != 4 {
		t.Fatalf("K5 κ = %d, want 4", got)
	}
}

// bruteEdgeIsRemovable recomputes both connectivities on the materialized
// smaller graph — the oracle for the localized two-flow probe.
func bruteEdgeIsRemovable(g *graph.Graph, e graph.Edge, kappa, lambda int) bool {
	h := g.WithoutEdge(e.U, e.V)
	return kappaOf(h) >= kappa && lambdaOf(h) >= lambda
}

func TestEdgeIsRemovableMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		g := randomGraph(9, seed)
		kappa := kappaOf(g)
		lambda := lambdaOf(g)
		if kappa == 0 || lambda == 0 {
			continue
		}
		for _, e := range g.Edges() {
			want := bruteEdgeIsRemovable(g, e, kappa, lambda)
			if got := EdgeIsRemovable(g, e, kappa, lambda); got != want {
				t.Fatalf("seed %d edge %v: EdgeIsRemovable=%t, brute force=%t (κ=%d λ=%d)",
					seed, e, got, want, kappa, lambda)
			}
			// The probe must accept either endpoint order.
			flipped := graph.Edge{U: e.V, V: e.U}
			if got := EdgeIsRemovable(g, flipped, kappa, lambda); got != want {
				t.Fatalf("seed %d edge %v flipped: EdgeIsRemovable=%t, want %t", seed, e, got, want)
			}
		}
	}
}

func TestEdgesRemovableMatchesSingleProbes(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := randomGraph(12, seed)
		kappa := kappaOf(g)
		lambda := lambdaOf(g)
		if kappa == 0 || lambda == 0 {
			continue
		}
		edges := g.Edges()
		want := make([]bool, len(edges))
		for i, e := range edges {
			want[i] = EdgeIsRemovable(g, e, kappa, lambda)
		}
		for _, workers := range []int{1, 8} {
			got, err := EdgesRemovable(context.Background(), g, edges, kappa, lambda, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d edge %v: batch=%t, single=%t",
						seed, workers, edges[i], got[i], want[i])
				}
			}
		}
	}
}

// TestEdgesRemovableRejectsNonEdge: the batch probes edges of g only. A
// pair that is not an edge (or names a node outside g) is an error, not a
// verdict — on this cycle the degree shortcut would otherwise answer
// "not removable" for the chord 0-3 without a flow.
func TestEdgesRemovableRejectsNonEdge(t *testing.T) {
	g := cycle(6)
	for _, bad := range []graph.Edge{{U: 0, V: 3}, {U: 3, V: 0}, {U: 0, V: 99}} {
		edges := append(g.Edges(), bad)
		for _, workers := range []int{1, 4} {
			out, err := EdgesRemovable(context.Background(), g, edges, 2, 2, workers)
			if err == nil {
				t.Fatalf("edge %v workers=%d: got verdicts %v, want an error", bad, workers, out)
			}
		}
	}
}

// TestCanonicalIndicesMatchEdges pins the CSR rank behind the masked P3
// arenas: the i-th edge of g.Edges(), given in either orientation, maps
// to canonical index i.
func TestCanonicalIndicesMatchEdges(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := gnp(4+int(seed%14), 1+seed%14, seed)
		edges := g.Edges()
		flipped := make([]graph.Edge, len(edges))
		for i, e := range edges {
			flipped[i] = graph.Edge{U: e.V, V: e.U}
		}
		for _, batch := range [][]graph.Edge{edges, flipped} {
			idx, err := canonicalIndices(g, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range idx {
				if int(p) != i {
					t.Fatalf("seed %d: edge %v has canonical index %d, want %d", seed, batch[i], p, i)
				}
			}
		}
	}
}
