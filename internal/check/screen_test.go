package check

import (
	"context"
	"reflect"
	"testing"

	"lhg/internal/core"
	"lhg/internal/graph"
)

// The scale screen's contract: κ and λ are exact, so P1 and P2 are always
// confirmed or refuted; only P4 may stay ScreenScreened, and P4 is
// refuted or confirmed only on an exact eccentricity witness.

func screenPath(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.MustAddEdge(v, v+1)
	}
	return b.Freeze()
}

func screenCycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.MustAddEdge(v, (v+1)%n)
	}
	return b.Freeze()
}

// barbell is two K6 cliques joined by two edges (0–6 and 1–7): δ = 5 but
// κ = λ = 2 — the star bound is badly loose and the true cut splits the
// graph in half.
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

// wantScreen fails t unless r carries exactly κ and λ with the matching
// P1/P2 verdicts at r.K.
func wantScreen(t *testing.T, name string, r *ScreenReport, kappa, lambda int) {
	t.Helper()
	if r.NodeConnectivity != kappa || r.EdgeConnectivity != lambda {
		t.Fatalf("%s: κ=%d λ=%d, want %d %d", name, r.NodeConnectivity, r.EdgeConnectivity, kappa, lambda)
	}
	if r.NodeConn != verdict(kappa >= r.K) || r.LinkConn != verdict(lambda >= r.K) {
		t.Fatalf("%s at k=%d: P1/P2 %s/%s, want %s/%s", name, r.K, r.NodeConn, r.LinkConn,
			verdict(kappa >= r.K), verdict(lambda >= r.K))
	}
}

func TestScreenValidInstanceScreens(t *testing.T) {
	// A true LHG fixture: plain Harary graphs have linear diameter and the
	// screen rightly refutes their P4, so use a k-regular K-TREE instance.
	gr, err := core.NewKTreeGrowerAt(3, 66)
	if err != nil {
		t.Fatal(err)
	}
	g := gr.Graph()
	r, err := Screen(context.Background(), g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("screen refuted a valid K-TREE: %s", r)
	}
	if !r.Regular || !r.Connected {
		t.Fatalf("linear facts wrong on K-TREE k=3 n=%d: %+v", g.Order(), r)
	}
	wantScreen(t, "K-TREE(66,3)", r, 3, 3)
	want := []string{"linear", "kappa", "lambda"}
	var got []string
	for _, p := range r.Phases {
		got = append(got, p.Phase)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("phases %v, want %v", got, want)
	}
}

func TestScreenExactVerdictsSmallK(t *testing.T) {
	for _, tc := range []struct {
		name          string
		g             *graph.Graph
		k             int
		kappa, lambda int
	}{
		{"path at k=1", screenPath(8), 1, 1, 1},
		{"cycle at k=2", screenCycle(12), 2, 2, 2},
		{"path at k=2", screenPath(8), 2, 1, 1},
	} {
		r, err := Screen(context.Background(), tc.g, tc.k, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantScreen(t, tc.name, r, tc.kappa, tc.lambda)
		if r.OK() != (tc.kappa >= tc.k) {
			t.Fatalf("%s: OK()=%t on %s", tc.name, r.OK(), r)
		}
	}
}

func TestScreenRefutesDisconnectedAndDegree(t *testing.T) {
	// Disconnected: κ = λ = 0, and every verdict refuted.
	b := graph.NewBuilder(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {5, 6}, {6, 4}} {
		b.MustAddEdge(e[0], e[1])
	}
	r, err := Screen(context.Background(), b.Freeze(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantScreen(t, "disconnected", r, 0, 0)
	if r.Diameter != ScreenRefuted {
		t.Fatalf("disconnected: P4 %s, want refuted", r.Diameter)
	}

	// δ < k: κ = λ = δ = 2 refutes both.
	r, err = Screen(context.Background(), screenCycle(10), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantScreen(t, "cycle at k=3", r, 2, 2)
}

// TestScreenFindsBarbellCut: a graph whose degree bound δ = 5 passes k but
// whose true cut is 2 must be refuted with the exact values.
func TestScreenFindsBarbellCut(t *testing.T) {
	r, err := Screen(context.Background(), barbell(t), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantScreen(t, "barbell", r, 2, 2)
}

// TestScreenDeterministic: the report, phases aside, is the same on every
// run and for every worker count.
func TestScreenDeterministic(t *testing.T) {
	g := mustHarary(t, 64, 4)
	first, err := Screen(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	first.Phases = nil
	for _, workers := range []int{1, 2, 4} {
		again, err := Screen(context.Background(), g, 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		again.Phases = nil
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("workers=%d diverged: %s vs %s", workers, again, first)
		}
	}
	wantScreen(t, "H(4,64)", first, 4, 4)
}

func TestScreenRejectsBadArgs(t *testing.T) {
	g := screenCycle(6)
	if _, err := Screen(context.Background(), g, 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Screen(context.Background(), g, 6, 1); err == nil {
		t.Fatal("k=n accepted")
	}
	if _, err := Screen(canceledCtx(), g, 2, 1); err == nil {
		t.Fatal("canceled context accepted")
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
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

// TestScreenPlantedJoin checks that the screen finds the planted 3-cut on
// every run: λ = 3 exactly, κ <= 3, and P1 and P2 refuted.
func TestScreenPlantedJoin(t *testing.T) {
	r, err := Screen(context.Background(), plantedJoin(t, 2048), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeConnectivity != 3 || r.NodeConnectivity > 3 ||
		r.LinkConn != ScreenRefuted || r.NodeConn != ScreenRefuted {
		t.Fatalf("planted 3-cut: %s", r)
	}
}
