package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNormalizeCanonicalizes(t *testing.T) {
	d := EdgeDelta{
		Added:   []Edge{{U: 5, V: 2}, {U: 1, V: 3}, {U: 3, V: 1}, {U: 1, V: 2}},
		Removed: []Edge{{U: 9, V: 0}, {U: 0, V: 4}},
	}
	d.Normalize()
	wantAdd := []Edge{{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 5}}
	wantDel := []Edge{{U: 0, V: 4}, {U: 0, V: 9}}
	if !reflect.DeepEqual(d.Added, wantAdd) {
		t.Fatalf("Added = %v, want %v", d.Added, wantAdd)
	}
	if !reflect.DeepEqual(d.Removed, wantDel) {
		t.Fatalf("Removed = %v, want %v", d.Removed, wantDel)
	}
}

func TestNormalizeCancelsOpposites(t *testing.T) {
	d := EdgeDelta{
		Added:   []Edge{{U: 0, V: 1}, {U: 2, V: 3}},
		Removed: []Edge{{U: 1, V: 0}, {U: 4, V: 5}},
	}
	d.Normalize()
	if !reflect.DeepEqual(d.Added, []Edge{{U: 2, V: 3}}) {
		t.Fatalf("Added = %v, want the surviving edge only", d.Added)
	}
	if !reflect.DeepEqual(d.Removed, []Edge{{U: 4, V: 5}}) {
		t.Fatalf("Removed = %v, want the surviving edge only", d.Removed)
	}
}

// randomGraph returns a graph over n nodes where each pair is linked with
// probability p, using the caller's deterministic source.
func randomGraphP(rng *rand.Rand, n int, p float64) *Graph {
	var es []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	return MustFromEdges(n, es)
}

// sameGraph compares two frozen graphs bit-for-bit (order, offsets, rows).
func sameGraph(a, b *Graph) bool {
	if a.Order() != b.Order() || a.Size() != b.Size() {
		return false
	}
	for v := 0; v < a.Order(); v++ {
		if !reflect.DeepEqual(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

// TestApplyDeltaMatchesThaw: a random valid delta applied through the
// O(changed) row patcher must equal the same edits made through the full
// thaw/freeze round trip.
func TestApplyDeltaMatchesThaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(24)
		g := randomGraphP(rng, n, 0.3)
		var d EdgeDelta
		for _, e := range g.Edges() {
			if rng.Float64() < 0.25 {
				d.Removed = append(d.Removed, e)
			}
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !g.HasEdge(u, v) && rng.Float64() < 0.1 {
					d.Added = append(d.Added, Edge{U: u, V: v})
				}
			}
		}
		d.Normalize()
		got, err := g.ApplyDelta(d, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := g.Thaw()
		for _, e := range d.Removed {
			want.RemoveEdge(e.U, e.V)
		}
		for _, e := range d.Added {
			want.MustAddEdge(e.U, e.V)
		}
		if !sameGraph(got, want.Freeze()) {
			t.Fatalf("trial %d: patched view differs from thaw/freeze", trial)
		}
	}
}

// TestApplyDeltaGrowsAndShrinks: node admissions wire fresh top labels,
// departures retire them once their links are torn down.
func TestApplyDeltaGrowsAndShrinks(t *testing.T) {
	g := MustFromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	grown, err := g.ApplyDelta(EdgeDelta{Added: []Edge{{U: 0, V: 3}, {U: 2, V: 3}}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Order() != 4 || !grown.HasEdge(0, 3) || !grown.HasEdge(2, 3) {
		t.Fatalf("grown view wrong: %v", grown.Edges())
	}
	back, err := grown.ApplyDelta(EdgeDelta{Removed: []Edge{{U: 0, V: 3}, {U: 2, V: 3}}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(back, g) {
		t.Fatalf("shrunk view differs from the original")
	}
}

func TestApplyDeltaRejectsInvalid(t *testing.T) {
	g := MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	cases := []struct {
		name string
		d    EdgeDelta
		n    int
	}{
		{"remove absent", EdgeDelta{Removed: []Edge{{U: 0, V: 2}}}, 4},
		{"add duplicate", EdgeDelta{Added: []Edge{{U: 0, V: 1}}}, 4},
		{"add out of range", EdgeDelta{Added: []Edge{{U: 0, V: 4}}}, 4},
		{"add self-loop", EdgeDelta{Added: []Edge{{U: 2, V: 2}}}, 4},
		{"remove out of range", EdgeDelta{Removed: []Edge{{U: 0, V: 9}}}, 4},
		{"departed with live links", EdgeDelta{}, 3},
		{"negative n", EdgeDelta{}, -1},
	}
	for _, tc := range cases {
		if _, err := g.ApplyDelta(tc.d, tc.n); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestApplyDeltaEmptyIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraphP(rng, 20, 0.2)
	h, err := g.ApplyDelta(EdgeDelta{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, h) {
		t.Fatal("identity delta changed the graph")
	}
}
