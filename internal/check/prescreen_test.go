package check

import (
	"context"
	"testing"

	"lhg/internal/core"
	"lhg/internal/graph"
)

// barbell is two K6 cliques joined by two edges (0–6 and 1–7): δ = 5 but
// λ = 2, the canonical shape the Karger prescreen exists for — the star
// bound is badly loose and the true cut splits the graph in half.
func barbell(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12)
	for _, off := range []int{0, 6} {
		for u := 0; u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				b.MustAddEdge(off+u, off+v)
			}
		}
	}
	b.MustAddEdge(0, 6)
	b.MustAddEdge(1, 7)
	return b.Freeze()
}

// TestPrescreenRoutingRate pins the fixed-seed contraction cut that routes
// Screen's λ verdict to an exact refutation, on both canonical shapes. On
// the barbell the rounds must find the true 2-cut; on a regular Harary
// graph λ = δ, no round can beat the star bound, and the cut is δ. The
// rounds are a pure function of the graph, so these values are exact, not
// statistical — a drift means the seed, the round budget, or the
// contraction order changed.
func TestPrescreenRoutingRate(t *testing.T) {
	g := barbell(t)
	withSink(t)

	cut := contractionCut(g)
	if cut != 2 {
		t.Fatalf("barbell: contraction cut %d, want the true cut 2", cut)
	}
	if v := mPrescreenImproved.Value(); v != 1 {
		t.Fatalf("check.prescreen.improved = %d, want 1", v)
	}
	if again := contractionCut(g); again != cut {
		t.Fatalf("barbell: contraction cut %d on the second run, %d on the first", again, cut)
	}

	if reg := contractionCut(mustHarary(t, 64, 4)); reg != 4 {
		t.Fatalf("harary H(4,64): contraction cut %d, want δ = 4", reg)
	}
}

// plantedJoin is two copies of K-TREE(m,4) joined by three disjoint edges.
// By Menger, κ = λ = 3 however the code computes them: the three edges are
// an edge cut and their left endpoints a vertex cut, while removing any
// two nodes leaves both 4-connected halves connected and spares at least
// one join edge with both its endpoints. δ = 4, so this is the λ < δ shape
// a star cut cannot see.
func plantedJoin(t *testing.T, m int) *graph.Graph {
	t.Helper()
	kt, err := core.BuildKTree(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(2 * m)
	for _, off := range []int{0, m} {
		for _, e := range kt.Real.Graph.Edges() {
			b.MustAddEdge(off+e.U, off+e.V)
		}
	}
	for _, j := range [][2]int{{0, m / 2}, {m / 3, 1}, {2 * m / 3, m - 1}} {
		b.MustAddEdge(j[0], m+j[1])
	}
	return b.Freeze()
}

// TestVerifyPlantedJoin checks that exact verification finds the planted
// 3-cut that no star cut reveals, serially and with two workers.
func TestVerifyPlantedJoin(t *testing.T) {
	ctx := context.Background()
	for _, m := range []int{64, 512} {
		g := plantedJoin(t, m)
		serial, err := Verify(ctx, g, 4, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if serial.NodeConnectivity != 3 || serial.EdgeConnectivity != 3 ||
			serial.KNodeConnected || serial.KLinkConnected {
			t.Fatalf("m=%d: κ=%d λ=%d P1=%t P2=%t, want κ=λ=3 and P1, P2 false", m,
				serial.NodeConnectivity, serial.EdgeConnectivity, serial.KNodeConnected, serial.KLinkConnected)
		}
		par, err := Verify(ctx, g, 4, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportCore(par), reportCore(serial); got != want {
			t.Fatalf("m=%d: two-worker report %+v differs from serial %+v", m, got, want)
		}
	}
}

// TestScreenPlantedJoin checks that the screen stays honest on a planted
// 3-cut its contraction rounds may miss: it never confirms P1 or P2, and a
// P2 refutation rests on a cut no larger than the planted one.
func TestScreenPlantedJoin(t *testing.T) {
	r, err := Screen(context.Background(), plantedJoin(t, 2048), 4, ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeConn == ScreenConfirmed || r.LinkConn == ScreenConfirmed {
		t.Fatalf("planted 3-cut: %s", r)
	}
	if r.LinkConn == ScreenRefuted && r.CutUpper > 3 {
		t.Fatalf("planted 3-cut: λ refuted with certified cut %d > 3", r.CutUpper)
	}
}
