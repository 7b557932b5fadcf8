package check

import (
	"context"
	"reflect"
	"testing"

	"lhg/internal/core"
	"lhg/internal/graph"
)

// The scale screen's contract: ScreenRefuted always carries an exact
// witness, ScreenConfirmed only appears when a sufficient exact check ran
// (k ≤ 2 connectivity, cutpoints, 2·ecc within the diameter bound), and
// everything else stays ScreenScreened — honest "no counterexample found".

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

func TestScreenValidInstanceScreens(t *testing.T) {
	// A true LHG fixture: plain Harary graphs have linear diameter and the
	// screen rightly refutes their P4, so use a k-regular K-TREE instance.
	gr, err := core.NewKTreeGrowerAt(3, 66)
	if err != nil {
		t.Fatal(err)
	}
	g := gr.Graph()
	r, err := Screen(context.Background(), g, 3, ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("screen refuted a valid K-TREE: %s", r)
	}
	if !r.Regular || !r.Connected {
		t.Fatalf("linear facts wrong on K-TREE k=3 n=%d: %+v", g.Order(), r)
	}
	// k = 3 > 2: no sufficient exact check exists, so passing verdicts
	// must be screened, never confirmed.
	if r.NodeConn != ScreenScreened || r.LinkConn != ScreenScreened {
		t.Fatalf("κ/λ verdicts %s/%s, want screened/screened", r.NodeConn, r.LinkConn)
	}
	if r.CutUpper != 3 {
		t.Fatalf("certified cut upper %d, want δ = 3 (λ = δ on K-TREE)", r.CutUpper)
	}
	if r.PairProbes == 0 {
		t.Fatal("confirm phase ran no pair probes")
	}
	want := []string{"linear", "prescreen", "confirm"}
	var got []string
	for _, p := range r.Phases {
		got = append(got, p.Phase)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("phases %v, want %v", got, want)
	}
}

func TestScreenExactVerdictsSmallK(t *testing.T) {
	// k == 1 on a connected graph: one BFS is a sufficient exact check.
	if r, err := Screen(context.Background(), screenPath(8), 1, ScreenOptions{}); err != nil {
		t.Fatal(err)
	} else if r.NodeConn != ScreenConfirmed || r.LinkConn != ScreenConfirmed {
		t.Fatalf("path at k=1: %s/%s, want confirmed/confirmed", r.NodeConn, r.LinkConn)
	}

	// k == 2 on a cycle: the cutpoint DFS confirms 2-connectivity exactly.
	if r, err := Screen(context.Background(), screenCycle(12), 2, ScreenOptions{}); err != nil {
		t.Fatal(err)
	} else if r.NodeConn != ScreenConfirmed || r.LinkConn != ScreenConfirmed {
		t.Fatalf("cycle at k=2: %s/%s, want confirmed/confirmed", r.NodeConn, r.LinkConn)
	}

	// k == 2 on a path: articulation points and bridges refute exactly.
	r, err := Screen(context.Background(), screenPath(8), 2, ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeConn != ScreenRefuted || r.LinkConn != ScreenRefuted {
		t.Fatalf("path at k=2: %s/%s, want refuted/refuted", r.NodeConn, r.LinkConn)
	}
	if r.OK() {
		t.Fatal("OK() true on a refuted report")
	}
}

func TestScreenRefutesDisconnectedAndDegree(t *testing.T) {
	// Disconnected: both connectivity verdicts refuted, certified cut 0.
	b := graph.NewBuilder(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {5, 6}, {6, 4}} {
		b.MustAddEdge(e[0], e[1])
	}
	r, err := Screen(context.Background(), b.Freeze(), 2, ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeConn != ScreenRefuted || r.LinkConn != ScreenRefuted || r.Diameter != ScreenRefuted {
		t.Fatalf("disconnected: %s/%s/%s, want all refuted", r.NodeConn, r.LinkConn, r.Diameter)
	}
	if r.CutUpper != 0 {
		t.Fatalf("disconnected: certified cut upper %d, want 0", r.CutUpper)
	}

	// δ < k refutes both by the degree witness without any probe.
	if r, err := Screen(context.Background(), screenCycle(10), 3, ScreenOptions{}); err != nil {
		t.Fatal(err)
	} else if r.NodeConn != ScreenRefuted || r.LinkConn != ScreenRefuted {
		t.Fatalf("cycle at k=3: %s/%s, want refuted/refuted (δ = 2)", r.NodeConn, r.LinkConn)
	}
}

// TestScreenFindsBarbellCut pins the prescreen's reason to exist at scale:
// a graph whose trivial degree bound δ = 5 passes k but whose true cut is
// 2 must be refuted exactly by a certified contraction cut.
func TestScreenFindsBarbellCut(t *testing.T) {
	r, err := Screen(context.Background(), barbell(t), 4, ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkConn != ScreenRefuted {
		t.Fatalf("barbell at k=4: λ verdict %s, want refuted (true cut 2 < 4)", r.LinkConn)
	}
	if r.CutUpper >= 4 {
		t.Fatalf("barbell: certified cut upper %d, want < 4", r.CutUpper)
	}
}

func TestScreenDeterministic(t *testing.T) {
	g := mustHarary(t, 64, 4)
	first, err := Screen(context.Background(), g, 4, ScreenOptions{SamplePairs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Screen(context.Background(), g, 4, ScreenOptions{SamplePairs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if again.NodeConn != first.NodeConn || again.LinkConn != first.LinkConn ||
			again.Diameter != first.Diameter || again.CutUpper != first.CutUpper ||
			again.PairProbes != first.PairProbes {
			t.Fatalf("run %d diverged: %s vs %s", i, again, first)
		}
	}
}

func TestScreenRejectsBadArgs(t *testing.T) {
	g := screenCycle(6)
	if _, err := Screen(context.Background(), g, 0, ScreenOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Screen(context.Background(), g, 6, ScreenOptions{}); err == nil {
		t.Fatal("k=n accepted")
	}
	if _, err := Screen(canceledCtx(), g, 2, ScreenOptions{}); err == nil {
		t.Fatal("canceled context accepted")
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
