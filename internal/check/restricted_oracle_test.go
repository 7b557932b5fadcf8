package check

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"lhg/internal/graph"
)

// Independent ground truth for the opt-in fault-tolerance properties:
// λ′ and super-λ straight from their bipartition definitions, enumerated
// over every vertex split — no flows, no contractions, no shared code with
// the pipeline under test.

// oracleRestrictedLambda is λ′ by definition: the minimum crossing-edge
// count over bipartitions in which every vertex keeps a neighbor on its own
// side; -1 when no such bipartition exists.
func oracleRestrictedLambda(g *graph.Graph) int {
	n := g.Order()
	edges := g.Edges()
	best := -1
	for mask := 1; mask < 1<<(n-1); mask++ { // vertex n-1 pinned to side 0
		side := func(v int) int {
			if v == n-1 {
				return 0
			}
			return mask >> v & 1
		}
		restricted := true
		for v := 0; v < n && restricted; v++ {
			ok := false
			for _, w := range g.Neighbors(v) {
				if side(w) == side(v) {
					ok = true
					break
				}
			}
			restricted = ok
		}
		if !restricted {
			continue
		}
		cut := 0
		for _, e := range edges {
			if side(e.U) != side(e.V) {
				cut++
			}
		}
		if best < 0 || cut < best {
			best = cut
		}
	}
	return best
}

// oracleSuperLambda decides super edge connectivity by definition: λ ≥ 1
// and every bipartition achieving the minimum cut isolates one vertex.
func oracleSuperLambda(g *graph.Graph) bool {
	n := g.Order()
	edges := g.Edges()
	if n < 2 || len(edges) == 0 {
		return false
	}
	lambda, super := -1, true
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
		size := bits.OnesCount(uint(mask))
		small := size
		if n-size < small {
			small = n - size
		}
		switch {
		case lambda < 0 || cut < lambda:
			lambda, super = cut, small == 1
		case cut == lambda && small != 1:
			super = false
		}
	}
	return lambda >= 1 && super
}

// TestVerifyRestrictedSuperAgainstOracle runs the opt-in PropSuperEdge
// report (which pulls in PropRestrictedEdge and PropLinkConnectivity) over
// seeded random graphs and asserts both extended fields against the
// bipartition oracles, serial and parallel, with and without the prescreen.
func TestVerifyRestrictedSuperAgainstOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7)         // 4..10
		percent := 15 + rng.Intn(85) // sparse through complete
		g, _, _ := oracleGraph(rng, n, percent)
		wantRestricted := oracleRestrictedLambda(g)
		wantSuper := oracleSuperLambda(g)
		for _, opt := range []Options{
			{Workers: 1, Props: PropSuperEdge},
			{Workers: 4, Props: PropSuperEdge},
			{Workers: 1, Props: PropSuperEdge, Prescreen: PrescreenAlways},
		} {
			r, err := Verify(ctx, g, 1, opt)
			if err != nil {
				t.Fatal(err)
			}
			if r.RestrictedEdgeConnectivity != wantRestricted {
				t.Fatalf("seed=%d n=%d p=%d %+v: λ'=%d, oracle %d",
					seed, n, percent, opt, r.RestrictedEdgeConnectivity, wantRestricted)
			}
			if r.SuperEdgeConnected != wantSuper {
				t.Fatalf("seed=%d n=%d p=%d %+v: super=%t (λ=%d δ=%d λ'=%d), oracle %t",
					seed, n, percent, opt, r.SuperEdgeConnected,
					r.EdgeConnectivity, r.MinDegree, r.RestrictedEdgeConnectivity, wantSuper)
			}
			if !r.Checked.Has(PropRestrictedEdge) || !r.Checked.Has(PropLinkConnectivity) {
				t.Fatalf("seed=%d: PropSuperEdge did not pull in its dependencies (checked %v)", seed, r.Checked)
			}
		}
	}
}

// TestVerifyDefaultSkipsExtendedProps pins that the extended measures stay
// opt-in: a default (PropAll) report leaves them at their zero values and
// does not mark them checked.
func TestVerifyDefaultSkipsExtendedProps(t *testing.T) {
	g := mustHarary(t, 14, 4)
	r, err := Verify(context.Background(), g, 4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Checked.Has(PropRestrictedEdge) || r.Checked.Has(PropSuperEdge) {
		t.Fatalf("default verify computed opt-in props: checked %v", r.Checked)
	}
	if r.RestrictedEdgeConnectivity != 0 || r.SuperEdgeConnected {
		t.Fatalf("unchecked extended fields not zero: λ'=%d super=%t",
			r.RestrictedEdgeConnectivity, r.SuperEdgeConnected)
	}
}
