package graph

import (
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(5)
	if g.Order() != 5 {
		t.Fatalf("Order = %d, want 5", g.Order())
	}
	if g.Size() != 0 {
		t.Fatalf("Size = %d, want 0", g.Size())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Fatalf("Degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
}

func TestNewNegativeClampsToZero(t *testing.T) {
	if g := New(-3); g.Order() != 0 {
		t.Fatalf("Order = %d, want 0", g.Order())
	}
	if b := NewBuilder(-3); b.Order() != 0 {
		t.Fatalf("Builder Order = %d, want 0", b.Order())
	}
}

func TestBuilderAddEdgeBasics(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !b.HasEdge(0, 1) || !b.HasEdge(1, 0) {
		t.Fatal("builder edge (0,1) missing in one direction")
	}
	g := b.Freeze()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("frozen edge (0,1) missing in one direction")
	}
	if g.Size() != 1 {
		t.Fatalf("Size = %d, want 1", g.Size())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("degrees not updated")
	}
}

func TestBuilderAddEdgeDuplicateIsNoop(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g := b.Freeze(); g.Size() != 1 {
		t.Fatalf("Size = %d after duplicate add, want 1", g.Size())
	}
}

func TestBuilderAddEdgeErrors(t *testing.T) {
	b := NewBuilder(3)
	tests := []struct {
		name string
		u, v int
	}{
		{name: "self loop", u: 1, v: 1},
		{name: "u out of range", u: -1, v: 0},
		{name: "v out of range", u: 0, v: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := b.AddEdge(tt.u, tt.v); err == nil {
				t.Fatalf("AddEdge(%d,%d) succeeded, want error", tt.u, tt.v)
			}
		})
	}
	if b.Size() != 0 {
		t.Fatal("failed adds must not change the builder")
	}
}

func TestBuilderRemoveEdge(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	if !b.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) = false, want true")
	}
	if b.HasEdge(0, 1) {
		t.Fatal("edge (0,1) still present")
	}
	if b.Size() != 1 {
		t.Fatalf("Size = %d, want 1", b.Size())
	}
	if b.RemoveEdge(0, 1) {
		t.Fatal("removing a missing edge must return false")
	}
	if b.RemoveEdge(0, 99) {
		t.Fatal("removing an out-of-range edge must return false")
	}
	g := b.Freeze()
	if g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("frozen view does not reflect the removal")
	}
}

func TestBuilderAddNode(t *testing.T) {
	b := NewBuilder(2)
	id := b.AddNode()
	if id != 2 {
		t.Fatalf("AddNode = %d, want 2", id)
	}
	if b.Order() != 3 {
		t.Fatalf("Order = %d, want 3", b.Order())
	}
	if err := b.AddEdge(0, id); err != nil {
		t.Fatalf("AddEdge to new node: %v", err)
	}
	if g := b.Freeze(); g.Order() != 3 || !g.HasEdge(0, 2) {
		t.Fatal("frozen view missing the grown node or its edge")
	}
}

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(2)
	first := b.Grow(3)
	if first != 2 {
		t.Fatalf("Grow = %d, want 2", first)
	}
	if b.Order() != 5 {
		t.Fatalf("Order = %d, want 5", b.Order())
	}
}

func TestFreezeCachedUntilMutation(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	g1 := b.Freeze()
	if g2 := b.Freeze(); g2 != g1 {
		t.Fatal("Freeze without mutation must return the cached graph")
	}
	b.MustAddEdge(1, 2)
	g3 := b.Freeze()
	if g3 == g1 {
		t.Fatal("mutation must invalidate the cached freeze")
	}
	if g1.HasEdge(1, 2) {
		t.Fatal("earlier frozen view changed after builder mutation")
	}
	if !g3.HasEdge(1, 2) {
		t.Fatal("new frozen view missing the added edge")
	}
}

func TestNeighborsSortedAndCopied(t *testing.T) {
	b := NewBuilder(5)
	for _, v := range []int{4, 1, 3} {
		b.MustAddEdge(0, v)
	}
	g := b.Freeze()
	nbrs := g.Neighbors(0)
	want := []int{1, 3, 4}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", nbrs, want)
		}
	}
	nbrs[0] = 99
	if g.Neighbors(0)[0] != 1 {
		t.Fatal("Neighbors must return a copy")
	}
	if g.Neighbors(-1) != nil || g.Neighbors(9) != nil {
		t.Fatal("out-of-range Neighbors must be nil")
	}
}

func TestEachNeighborOrder(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(2, 0)
	b.MustAddEdge(2, 1)
	var got []int
	b.Freeze().EachNeighbor(2, func(w int) { got = append(got, w) })
	want := []int{0, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EachNeighbor order %v, want %v", got, want)
		}
	}
}

func TestNeighborRank(t *testing.T) {
	b := NewBuilder(5)
	b.MustAddEdge(2, 4)
	b.MustAddEdge(2, 0)
	b.MustAddEdge(2, 1)
	g := b.Freeze()
	// Row of 2 is [0 1 4].
	for w, want := range []int{0, 1, 2, 2, 2, 3} {
		if got := g.NeighborRank(2, w); got != want {
			t.Errorf("NeighborRank(2, %d) = %d, want %d", w, got, want)
		}
	}
	if got := g.NeighborRank(7, 0); got != 0 {
		t.Errorf("NeighborRank of an out-of-range node = %d, want 0", got)
	}
}

func TestEdgesCanonical(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(3, 1)
	b.MustAddEdge(0, 2)
	b.MustAddEdge(2, 1)
	edges := b.Freeze().Edges()
	want := []Edge{{0, 2}, {1, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

func TestThawIndependence(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	g := b.Freeze()
	c := g.Thaw()
	c.MustAddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating the thawed builder changed the frozen graph")
	}
	if c.Size() != 2 || g.Size() != 1 {
		t.Fatalf("sizes: thawed=%d frozen=%d, want 2 and 1", c.Size(), g.Size())
	}
	h := c.Freeze()
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 2) {
		t.Fatal("refreeze lost an edge")
	}
}

func TestWithoutEdge(t *testing.T) {
	g := cycle(5)
	h := g.WithoutEdge(0, 1)
	if h.HasEdge(0, 1) {
		t.Fatal("WithoutEdge left the edge in place")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("WithoutEdge mutated the receiver")
	}
	if h.Size() != g.Size()-1 {
		t.Fatalf("sizes: h=%d g=%d, want one fewer", h.Size(), g.Size())
	}
	if !h.HasEdge(1, 2) || !h.HasEdge(4, 0) {
		t.Fatal("WithoutEdge dropped an unrelated edge")
	}
	if g.WithoutEdge(0, 2) != g {
		t.Fatal("removing an absent edge must return the receiver")
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, []Edge{{1, 3}, {0, 2}, {2, 1}, {3, 1}}) // dup (1,3)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (duplicate coalesced)", g.Size())
	}
	want := []Edge{{0, 2}, {1, 2}, {1, 3}}
	got := g.Edges()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", got, want)
		}
	}
	if _, err := FromEdges(3, []Edge{{0, 3}}); err == nil {
		t.Fatal("out-of-range edge must error")
	}
	if _, err := FromEdges(3, []Edge{{1, 1}}); err == nil {
		t.Fatal("self-loop must error")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("negative order must error")
	}
}

func TestDegreeStats(t *testing.T) {
	b := NewBuilder(4) // star around 0 plus an isolated node 3
	b.MustAddEdge(0, 1)
	b.MustAddEdge(0, 2)
	g := b.Freeze()
	minDeg, minNode := g.MinDegree()
	if minDeg != 0 || minNode != 3 {
		t.Fatalf("MinDegree = (%d,%d), want (0,3)", minDeg, minNode)
	}
	maxDeg, maxNode := g.MaxDegree()
	if maxDeg != 2 || maxNode != 0 {
		t.Fatalf("MaxDegree = (%d,%d), want (2,0)", maxDeg, maxNode)
	}
	degs := g.Degrees()
	want := []int{2, 1, 1, 0}
	for i := range want {
		if degs[i] != want[i] {
			t.Fatalf("Degrees = %v, want %v", degs, want)
		}
	}
}

func TestDegreeStatsEmpty(t *testing.T) {
	var g Graph
	if d, v := g.MinDegree(); d != -1 || v != -1 {
		t.Fatalf("MinDegree on empty = (%d,%d), want (-1,-1)", d, v)
	}
	if d, v := g.MaxDegree(); d != -1 || v != -1 {
		t.Fatalf("MaxDegree on empty = (%d,%d), want (-1,-1)", d, v)
	}
}

func TestIsRegular(t *testing.T) {
	g := cycle(5)
	if !g.IsRegular(2) {
		t.Fatal("C5 must be 2-regular")
	}
	if g.IsRegular(3) {
		t.Fatal("C5 is not 3-regular")
	}
	b := g.Thaw()
	b.MustAddEdge(0, 2)
	if b.Freeze().IsRegular(2) {
		t.Fatal("C5 plus a chord is not 2-regular")
	}
}

// cycle returns the n-cycle 0-1-...-n-1-0.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.MustAddEdge(v, (v+1)%n)
	}
	return b.Freeze()
}

// path returns the n-path 0-1-...-n-1.
func path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.MustAddEdge(v, v+1)
	}
	return b.Freeze()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.Freeze()
}

func TestPropertyEdgeCountMatchesHandshake(t *testing.T) {
	// For random graphs, sum of degrees equals twice the edge count and
	// every reported edge exists in both adjacency lists.
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		g := randomGraph(n, uint64(seed))
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		if sum != 2*g.Size() {
			return false
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e.U, e.V) || !g.HasEdge(e.V, e.U) || e.U >= e.V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRemoveUndoesAdd(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		b := randomBuilder(n, uint64(seed))
		before := b.Size()
		u, v := int(seed)%n, int(seed/7)%n
		if u == v {
			return true
		}
		had := b.HasEdge(u, v)
		if err := b.AddEdge(u, v); err != nil {
			return false
		}
		if !b.RemoveEdge(u, v) {
			return false
		}
		if had {
			// Edge pre-existed: add was a no-op, remove deleted it.
			return b.Size() == before-1
		}
		return b.Size() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFromEdgesMatchesBuilder(t *testing.T) {
	// Bulk construction and incremental construction must freeze to the
	// same graph.
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		g := randomGraph(n, uint64(seed))
		h := MustFromEdges(n, g.Edges())
		if h.Order() != g.Order() || h.Size() != g.Size() {
			return false
		}
		hEdges := h.Edges()
		for i, e := range g.Edges() {
			if hEdges[i] != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomBuilder builds a deterministic pseudo-random graph on n nodes.
func randomBuilder(n int, seed uint64) *Builder {
	b := NewBuilder(n)
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next()%3 == 0 {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b
}

// randomGraph is the frozen view of randomBuilder.
func randomGraph(n int, seed uint64) *Graph {
	return randomBuilder(n, seed).Freeze()
}
