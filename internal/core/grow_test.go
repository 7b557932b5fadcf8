package core

import (
	"context"
	"testing"

	"lhg/internal/check"
)

// growerFamilies lists the constructors of both families.
var growerFamilies = []func(k, n int) (*Grower, error){NewKTreeGrowerAt, NewKDiamondGrowerAt}

func TestGrowerConstructorsRejectSmallK(t *testing.T) {
	if _, err := NewKTreeGrowerAt(2, 4); err == nil {
		t.Fatal("k=2 must be rejected")
	}
	if _, err := NewKDiamondGrowerAt(2, 4); err == nil {
		t.Fatal("k=2 must be rejected")
	}
}

func TestGrowerInitialGraphIsMinimalLHG(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		for _, at := range growerFamilies {
			gr, err := at(k, 2*k)
			if err != nil {
				t.Fatal(err)
			}
			g := gr.Graph()
			if g.Order() != 2*k {
				t.Fatalf("initial order %d, want %d", g.Order(), 2*k)
			}
			if !g.IsRegular(k) {
				t.Fatalf("initial graph must be k-regular")
			}
			r, err := check.Verify(context.Background(), g, k, check.Options{Workers: 1})
			if err != nil || !r.IsLHG() {
				t.Fatalf("initial graph is not an LHG (k=%d): %v", k, err)
			}
		}
	}
}

// TestKTreeGrowerEveryStepIsLHG is the headline incremental property: the
// graph satisfies all LHG properties after every single admission, and is
// k-regular exactly on the Theorem 3 grid.
func TestKTreeGrowerEveryStepIsLHG(t *testing.T) {
	for _, k := range []int{3, 4} {
		gr, err := NewKTreeGrowerAt(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6*k; step++ {
			if _, err := gr.Grow(); err != nil {
				t.Fatalf("k=%d step %d: %v", k, step, err)
			}
			n := gr.N()
			g := gr.Graph()
			r, err := check.Verify(context.Background(), g, k, check.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.IsLHG() {
				t.Fatalf("k=%d n=%d: grower graph is not an LHG: %s", k, n, r)
			}
			if g.IsRegular(k) != RegularKTree(n, k) {
				t.Fatalf("k=%d n=%d: regular=%t, Theorem 3 says %t",
					k, n, g.IsRegular(k), RegularKTree(n, k))
			}
		}
	}
}

// TestKDiamondGrowerEveryStepIsLHG mirrors the above for K-DIAMOND: regular
// exactly on the denser Theorem 6 grid.
func TestKDiamondGrowerEveryStepIsLHG(t *testing.T) {
	for _, k := range []int{3, 4} {
		gr, err := NewKDiamondGrowerAt(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6*k; step++ {
			if _, err := gr.Grow(); err != nil {
				t.Fatalf("k=%d step %d: %v", k, step, err)
			}
			n := gr.N()
			g := gr.Graph()
			r, err := check.Verify(context.Background(), g, k, check.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.IsLHG() {
				t.Fatalf("k=%d n=%d: grower graph is not an LHG: %s", k, n, r)
			}
			if g.IsRegular(k) != RegularKDiamond(n, k) {
				t.Fatalf("k=%d n=%d: regular=%t, Theorem 6 says %t",
					k, n, g.IsRegular(k), RegularKDiamond(n, k))
			}
		}
	}
}

// TestGrowerNodeCountMatchesCanonical: incremental and canonical builders
// agree on node and edge counts at every size (the graphs are isomorphic
// by construction; counting is the cheap invariant to assert).
func TestGrowerNodeCountMatchesCanonical(t *testing.T) {
	k := 3
	ktg, err := NewKTreeGrowerAt(k, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	kdg, err := NewKDiamondGrowerAt(k, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		if _, err := ktg.Grow(); err != nil {
			t.Fatal(err)
		}
		if _, err := kdg.Grow(); err != nil {
			t.Fatal(err)
		}
		n := 2*k + step + 1
		if ktg.N() != n || kdg.N() != n {
			t.Fatalf("step %d: sizes %d/%d, want %d", step, ktg.N(), kdg.N(), n)
		}
		kt, err := BuildKTree(n, k)
		if err != nil {
			t.Fatal(err)
		}
		if ktg.Graph().Size() != kt.Real.Graph.Size() {
			t.Fatalf("n=%d: ktree grower has %d edges, canonical %d",
				n, ktg.Graph().Size(), kt.Real.Graph.Size())
		}
		kd, err := BuildKDiamond(n, k)
		if err != nil {
			t.Fatal(err)
		}
		if kdg.Graph().Size() != kd.Real.Graph.Size() {
			t.Fatalf("n=%d: kdiamond grower has %d edges, canonical %d",
				n, kdg.Graph().Size(), kd.Real.Graph.Size())
		}
	}
}

// TestGrowerChurnIsSizeIndependent: the edge surgery per admission is
// bounded by a function of k alone — the payoff over canonical rebuilds.
func TestGrowerChurnIsSizeIndependent(t *testing.T) {
	k := 4
	bound := 3 * k * k // loose O(k²) cap
	for _, at := range growerFamilies {
		gr, err := at(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			d, err := gr.Grow()
			if err != nil {
				t.Fatal(err)
			}
			if d.Total() > bound {
				t.Fatalf("step %d: churn %d exceeds O(k²) bound %d", step, d.Total(), bound)
			}
		}
	}
}

// TestGrowerDeltaMatchesGraph: applying the reported delta to the previous
// snapshot reproduces the new snapshot exactly.
func TestGrowerDeltaMatchesGraph(t *testing.T) {
	gr, err := NewKDiamondGrowerAt(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	prev := gr.Graph().Thaw()
	for step := 0; step < 25; step++ {
		d, err := gr.Grow()
		if err != nil {
			t.Fatal(err)
		}
		for prev.Order() < gr.N() {
			prev.AddNode()
		}
		for _, e := range d.Removed {
			if !prev.RemoveEdge(e.U, e.V) {
				t.Fatalf("step %d: delta removes non-existent edge %v", step, e)
			}
		}
		for _, e := range d.Added {
			if prev.HasEdge(e.U, e.V) {
				t.Fatalf("step %d: delta adds duplicate edge %v", step, e)
			}
			if err := prev.AddEdge(e.U, e.V); err != nil {
				t.Fatalf("step %d: delta add %v: %v", step, e, err)
			}
		}
		cur := gr.Graph()
		if prev.Size() != cur.Size() {
			t.Fatalf("step %d: replay has %d edges, grower %d", step, prev.Size(), cur.Size())
		}
		for _, e := range cur.Edges() {
			if !prev.HasEdge(e.U, e.V) {
				t.Fatalf("step %d: replay missing edge %v", step, e)
			}
		}
	}
}

// TestGrowerStableIDs: once admitted, a node keeps its id and never loses
// connectivity to the rest of the overlay.
func TestGrowerStableIDs(t *testing.T) {
	gr, err := NewKTreeGrowerAt(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		if _, err := gr.Grow(); err != nil {
			t.Fatal(err)
		}
		g := gr.Graph()
		if !g.Connected() {
			t.Fatalf("step %d: graph disconnected", step)
		}
		minDeg, node := g.MinDegree()
		if minDeg < 3 {
			t.Fatalf("step %d: node %d has degree %d < k", step, node, minDeg)
		}
	}
}

// TestGrowerLongRunDiameter: after hundreds of admissions the diameter is
// still within the logarithmic bound.
func TestGrowerLongRunDiameter(t *testing.T) {
	k := 3
	gr, err := NewKDiamondGrowerAt(k, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	for gr.N() < 500 {
		if _, err := gr.Grow(); err != nil {
			t.Fatal(err)
		}
	}
	g := gr.Graph()
	diam := g.Diameter()
	if bound := check.DiameterBound(g.Order(), k); diam > bound {
		t.Fatalf("diameter %d exceeds bound %d at n=%d", diam, bound, g.Order())
	}
}
