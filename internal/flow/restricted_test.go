package flow

import (
	"math/bits"
	"math/rand"
	"testing"

	"lhg/internal/graph"
)

// Brute-force oracle for the restricted edge connectivity λ′: enumerate
// every bipartition (A, B) of the vertex set, keep the ones in which every
// vertex has at least one neighbor on its own side (no side isolates a
// node), and take the minimum crossing-edge count; -1 when no such
// bipartition exists. This is the textbook definition, sharing no code
// with the pairwise-flow reduction under test.
func oracleRestricted(g *graph.Graph) int {
	n := g.Order()
	if n < 2 || n > 20 {
		return -1
	}
	edges := g.Edges()
	best := -1
	for mask := 1; mask < 1<<(n-1); mask++ { // vertex n-1 stays on side 0: halves the space
		restricted := true
		for v := 0; v < n && restricted; v++ {
			side := mask >> v & 1
			ok := false
			for _, w := range g.Neighbors(v) {
				ws := 0
				if w < n-1 {
					ws = mask >> w & 1
				}
				if ws == side {
					ok = true
					break
				}
			}
			if !ok {
				restricted = false
			}
		}
		if !restricted {
			continue
		}
		cut := 0
		for _, e := range edges {
			us, vs := 0, 0
			if e.U < n-1 {
				us = mask >> e.U & 1
			}
			if e.V < n-1 {
				vs = mask >> e.V & 1
			}
			if us != vs {
				cut++
			}
		}
		if best < 0 || cut < best {
			best = cut
		}
	}
	return best
}

func fixtureGraphN(n int, build func(b *graph.Builder)) *graph.Graph {
	b := graph.NewBuilder(n)
	build(b)
	return b.Freeze()
}

// TestRestrictedEdgeConnectivityFixtures pins λ′ on the canonical shapes:
// cycles (λ′ = 2), cliques (λ′ = 2k-2 for K_k, k ≥ 4), stars and
// triangles (undefined), and graphs with isolated vertices (undefined).
func TestRestrictedEdgeConnectivityFixtures(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"C4", fixtureGraphN(4, func(b *graph.Builder) {
			for v := 0; v < 4; v++ {
				b.MustAddEdge(v, (v+1)%4)
			}
		}), 2},
		{"C7", fixtureGraphN(7, func(b *graph.Builder) {
			for v := 0; v < 7; v++ {
				b.MustAddEdge(v, (v+1)%7)
			}
		}), 2},
		{"K4", fixtureGraphN(4, func(b *graph.Builder) {
			for u := 0; u < 4; u++ {
				for v := u + 1; v < 4; v++ {
					b.MustAddEdge(u, v)
				}
			}
		}), 4},
		{"K5", fixtureGraphN(5, func(b *graph.Builder) {
			for u := 0; u < 5; u++ {
				for v := u + 1; v < 5; v++ {
					b.MustAddEdge(u, v)
				}
			}
		}), 6},
		{"star", fixtureGraphN(6, func(b *graph.Builder) {
			for v := 1; v < 6; v++ {
				b.MustAddEdge(0, v)
			}
		}), -1},
		{"triangle", fixtureGraphN(3, func(b *graph.Builder) {
			b.MustAddEdge(0, 1)
			b.MustAddEdge(1, 2)
			b.MustAddEdge(0, 2)
		}), -1},
		{"isolated-vertex", fixtureGraphN(5, func(b *graph.Builder) {
			for v := 0; v < 4; v++ {
				b.MustAddEdge(v, (v+1)%4)
			}
		}), -1},
		{"single-edge", fixtureGraphN(2, func(b *graph.Builder) {
			b.MustAddEdge(0, 1)
		}), -1},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			if got := restrictedOf(tc.g, workers); got != tc.want {
				t.Errorf("%s workers=%d: λ' = %d, want %d", tc.name, workers, got, tc.want)
			}
		}
		if got := oracleRestricted(tc.g); got != tc.want {
			t.Errorf("%s: oracle disagrees with the fixture: %d vs %d (fix the test)", tc.name, got, tc.want)
		}
	}
}

// TestRestrictedEdgeConnectivityAgainstOracle sweeps seeded random graphs
// (n ≤ 10, all densities, disconnected and irregular shapes included) and
// asserts the pairwise-flow reduction equals the bipartition definition,
// serial and parallel.
func TestRestrictedEdgeConnectivityAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7) // 4..10
		percent := 15 + rng.Intn(75)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(100) < percent {
					b.MustAddEdge(u, v)
				}
			}
		}
		g := b.Freeze()
		want := oracleRestricted(g)
		for _, workers := range []int{1, 4} {
			if got := restrictedOf(g, workers); got != want {
				t.Fatalf("seed=%d n=%d p=%d workers=%d: λ' = %d, oracle %d",
					seed, n, percent, workers, got, want)
			}
		}
	}
}

// oracleSuper decides super edge connectivity by definition: the graph is
// connected, λ ≥ 1, and every bipartition achieving the minimum cut value
// isolates exactly one vertex.
func oracleSuper(g *graph.Graph) bool {
	n := g.Order()
	edges := g.Edges()
	if n < 2 || !g.Connected() || len(edges) == 0 {
		return false
	}
	lambda := -1
	super := true
	for mask := 1; mask < 1<<(n-1); mask++ {
		cut := 0
		for _, e := range edges {
			us, vs := 0, 0
			if e.U < n-1 {
				us = mask >> e.U & 1
			}
			if e.V < n-1 {
				vs = mask >> e.V & 1
			}
			if us != vs {
				cut++
			}
		}
		size := bits.OnesCount(uint(mask)) // side-1 size; side 0 holds vertex n-1
		small := size
		if n-size < small {
			small = n - size
		}
		switch {
		case lambda < 0 || cut < lambda:
			lambda = cut
			super = small == 1
		case cut == lambda && small != 1:
			super = false
		}
	}
	return lambda >= 1 && super
}

// TestSuperEdgeFromRestricted checks the derivation the check layer uses —
// super-λ ⟺ λ ≥ 1 ∧ λ = δ ∧ (λ′ undefined ∨ λ′ > λ) — against the
// enumerate-every-cut oracle on seeded random graphs.
func TestSuperEdgeFromRestricted(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 4 + rng.Intn(6) // 4..9
		percent := 25 + rng.Intn(70)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(100) < percent {
					b.MustAddEdge(u, v)
				}
			}
		}
		g := b.Freeze()
		if !g.Connected() {
			continue
		}
		lambda := lambdaOf(g)
		minDeg, _ := g.MinDegree()
		lp := restrictedOf(g, 1)
		derived := lambda >= 1 && lambda == minDeg && (lp == -1 || lp > lambda)
		if want := oracleSuper(g); derived != want {
			t.Fatalf("seed=%d n=%d p=%d: derived super=%t (λ=%d δ=%d λ'=%d), oracle %t",
				seed, n, percent, derived, lambda, minDeg, lp, want)
		}
	}
}
