package lhg_test

// Large-scale integration tests. They take a few seconds and are skipped
// under `go test -short`.

import (
	"context"
	"testing"

	"lhg"
	"lhg/internal/check"
	"lhg/internal/flood"
	"lhg/internal/flow"
	"lhg/internal/sim"
)

func TestScaleBuildAndFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const (
		n = 5000
		k = 5
	)
	for _, c := range []lhg.Constraint{lhg.Harary, lhg.KTree, lhg.KDiamond} {
		g, err := lhg.Build(context.Background(), c, n, k)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if g.Order() != n {
			t.Fatalf("%v: %d nodes", c, g.Order())
		}
		if minDeg, _ := g.MinDegree(); minDeg < k {
			t.Fatalf("%v: min degree %d", c, minDeg)
		}
		// Flood through k-1 random failures: must be complete.
		rng := sim.NewRNG(31)
		fails, err := flood.RandomNodeFailures(g, 0, k-1, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lhg.Flood(context.Background(), g, 0, lhg.WithFailures(fails))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("%v: flood incomplete at n=%d", c, n)
		}
		// The diameter shapes at scale.
		ecc, whole := g.Eccentricity(0)
		if !whole {
			t.Fatalf("%v: disconnected", c)
		}
		if c != lhg.Harary {
			if bound := check.DiameterBound(n, k); 2*ecc > 2*bound {
				t.Fatalf("%v: eccentricity %d way over the log bound %d", c, ecc, bound)
			}
		}
	}
}

func TestScaleConnectivityExact(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	// Exact connectivity via the max-flow sweeps at a size where the naive
	// all-pairs approach would be prohibitive. κ = λ = 4 also says the
	// 4-regular graph is not 5-connected.
	g, err := lhg.Build(context.Background(), lhg.KDiamond, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if kappa, err := flow.VertexConnectivity(ctx, g, 0); err != nil || kappa != 4 {
		t.Fatalf("K-DIAMOND(1000,4): κ = %d (err %v), want 4", kappa, err)
	}
	if lambda, err := flow.EdgeConnectivity(ctx, g, 0); err != nil || lambda != 4 {
		t.Fatalf("K-DIAMOND(1000,4): λ = %d (err %v), want 4", lambda, err)
	}
}

func TestScaleGrowerToThousands(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	gr, err := lhg.NewKDiamondGrowerAt(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	maxChurn := 0
	for gr.N() < 3000 {
		d, err := gr.Grow()
		if err != nil {
			t.Fatal(err)
		}
		if d.Total() > maxChurn {
			maxChurn = d.Total()
		}
		// Spot-check full LHG properties once on the way up (the exact
		// verifier is O(n·maxflow); every-step checks live in the core
		// suite at small n).
		if gr.N() == 600 {
			ok, err := lhg.IsLHG(context.Background(), gr.Graph(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("grower graph fails LHG verification at n=%d", gr.N())
			}
		}
	}
	if maxChurn > 3*4*4 {
		t.Fatalf("grower churn %d exceeded O(k²) on the way to n=3000", maxChurn)
	}
	if !gr.Graph().Connected() {
		t.Fatal("grower graph disconnected at n=3000")
	}
}

func TestScaleProtocolBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g, err := lhg.Build(context.Background(), lhg.KTree, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lhg.Flood(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("fault-free flood incomplete")
	}
	// Logarithmic latency at scale: 2000 nodes, k=4 -> about
	// 2*log3(2000) ≈ 14 rounds; assert generously.
	if res.Rounds > 20 {
		t.Fatalf("flood took %d rounds at n=2000 — not logarithmic", res.Rounds)
	}
}
