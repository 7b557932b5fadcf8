package flow

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"lhg/internal/graph"
)

// --- fixture builders -------------------------------------------------

func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.MustAddEdge(v, (v+1)%n)
	}
	return b.Freeze()
}

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.MustAddEdge(v, v+1)
	}
	return b.Freeze()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.Freeze()
}

// completeBipartite returns K_{a,b} with the left part 0..a-1.
func completeBipartite(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bld.MustAddEdge(u, v)
		}
	}
	return bld.Freeze()
}

// twoTriangles returns two triangles joined by a single bridge edge.
func twoTriangles() *graph.Graph {
	return graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3}, // bridge
	})
}

func randomGraph(n int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next()%2 == 0 {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Freeze()
}

// --- brute-force oracles ----------------------------------------------

// bruteVertexConnectivity removes every node subset of size < n-1 and
// returns the size of the smallest disconnecting one (n-1 for complete-like
// graphs, matching the convention).
func bruteVertexConnectivity(g *graph.Graph) int {
	n := g.Order()
	if n < 2 {
		return 0
	}
	if !g.Connected() {
		return 0
	}
	for size := 1; size <= n-2; size++ {
		if subsetDisconnects(g, size) {
			return size
		}
	}
	return n - 1
}

func subsetDisconnects(g *graph.Graph, size int) bool {
	n := g.Order()
	removed := make([]bool, n)
	var rec func(start, left int) bool
	rec = func(start, left int) bool {
		if left == 0 {
			return !g.ConnectedIgnoring(removed)
		}
		for v := start; v <= n-left; v++ {
			removed[v] = true
			if rec(v+1, left-1) {
				removed[v] = false
				return true
			}
			removed[v] = false
		}
		return false
	}
	return rec(0, size)
}

// bruteEdgeConnectivity removes every edge subset of increasing size.
func bruteEdgeConnectivity(g *graph.Graph) int {
	if g.Order() < 2 || !g.Connected() {
		return 0
	}
	edges := g.Edges()
	for size := 1; size <= len(edges); size++ {
		if edgeSubsetDisconnects(g, edges, size) {
			return size
		}
	}
	return len(edges)
}

func edgeSubsetDisconnects(g *graph.Graph, edges []graph.Edge, size int) bool {
	var rec func(b *graph.Builder, start, left int) bool
	rec = func(b *graph.Builder, start, left int) bool {
		if left == 0 {
			return !b.Freeze().Connected()
		}
		for i := start; i <= len(edges)-left; i++ {
			b.RemoveEdge(edges[i].U, edges[i].V)
			if rec(b, i+1, left-1) {
				b.MustAddEdge(edges[i].U, edges[i].V)
				return true
			}
			b.MustAddEdge(edges[i].U, edges[i].V)
		}
		return false
	}
	return rec(g.Thaw(), 0, size)
}

// --- tests --------------------------------------------------------------

func TestVertexConnectivityKnownGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{name: "path", g: path(6), want: 1},
		{name: "cycle", g: cycle(6), want: 2},
		{name: "K5", g: complete(5), want: 4},
		{name: "K33", g: completeBipartite(3, 3), want: 3},
		{name: "K24", g: completeBipartite(2, 4), want: 2},
		{name: "two triangles", g: twoTriangles(), want: 1},
		{name: "disconnected", g: graph.New(4), want: 0},
		{name: "single node", g: graph.New(1), want: 0},
		{name: "K2", g: complete(2), want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := kappaOf(tt.g); got != tt.want {
				t.Fatalf("VertexConnectivity = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEdgeConnectivityKnownGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{name: "path", g: path(6), want: 1},
		{name: "cycle", g: cycle(6), want: 2},
		{name: "K5", g: complete(5), want: 4},
		{name: "K33", g: completeBipartite(3, 3), want: 3},
		{name: "two triangles", g: twoTriangles(), want: 1},
		{name: "disconnected", g: graph.New(4), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := lambdaOf(tt.g); got != tt.want {
				t.Fatalf("EdgeConnectivity = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEdgeCut(t *testing.T) {
	g := twoTriangles()
	cut, err := EdgeCut(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 1 {
		t.Fatalf("EdgeCut across bridge = %d, want 1", cut)
	}
	cut, err = EdgeCut(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 2 {
		t.Fatalf("EdgeCut inside triangle = %d, want 2", cut)
	}
}

func TestVertexCutErrors(t *testing.T) {
	g := cycle(5)
	if _, err := VertexCut(g, 0, 1); err == nil {
		t.Fatal("VertexCut of adjacent nodes must error")
	}
	if _, err := VertexCut(g, 0, 0); err == nil {
		t.Fatal("VertexCut of identical nodes must error")
	}
	if _, err := VertexCut(g, -1, 2); err == nil {
		t.Fatal("VertexCut out of range must error")
	}
}

func TestMinVertexCutSet(t *testing.T) {
	g := twoTriangles()
	cut, err := MinVertexCutSet(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 1 {
		t.Fatalf("cut = %v, want a single articulation node", cut)
	}
	if cut[0] != 2 && cut[0] != 3 {
		t.Fatalf("cut = %v, want node 2 or 3", cut)
	}
	// Removing the cut must actually disconnect 0 from 5.
	removed := make([]bool, g.Order())
	for _, v := range cut {
		removed[v] = true
	}
	if g.ConnectedIgnoring(removed) {
		t.Fatal("returned cut does not disconnect the graph")
	}
}

func TestVertexDisjointPathsCycle(t *testing.T) {
	g := cycle(8)
	paths, err := VertexDisjointPaths(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertDisjointPaths(t, g, paths, 0, 4, 2)
}

func TestVertexDisjointPathsComplete(t *testing.T) {
	g := complete(5)
	paths, err := VertexDisjointPaths(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertDisjointPaths(t, g, paths, 0, 4, 4)
}

func TestVertexDisjointPathsAdjacent(t *testing.T) {
	g := cycle(5)
	paths, err := VertexDisjointPaths(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertDisjointPaths(t, g, paths, 0, 1, 2)
	// One of the two paths must be the direct edge.
	direct := false
	for _, p := range paths {
		if len(p) == 2 {
			direct = true
		}
	}
	if !direct {
		t.Fatalf("paths %v miss the direct edge", paths)
	}
}

// assertDisjointPaths checks count, endpoints, edge validity, and internal
// disjointness.
func assertDisjointPaths(t *testing.T, g *graph.Graph, paths [][]int, s, tt, want int) {
	t.Helper()
	if len(paths) != want {
		t.Fatalf("got %d paths, want %d: %v", len(paths), want, paths)
	}
	seen := make(map[int]bool)
	for _, p := range paths {
		if p[0] != s || p[len(p)-1] != tt {
			t.Fatalf("path %v must run %d..%d", p, s, tt)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("path %v uses missing edge (%d,%d)", p, p[i], p[i+1])
			}
		}
		for _, v := range p[1 : len(p)-1] {
			if seen[v] {
				t.Fatalf("internal node %d reused across paths %v", v, paths)
			}
			seen[v] = true
		}
	}
}

func TestPropertyConnectivityMatchesBruteForce(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%6) + 2 // brute force is exponential; stay tiny
		g := randomGraph(n, uint64(seed))
		if kappaOf(g) != bruteVertexConnectivity(g) {
			return false
		}
		return lambdaOf(g) == bruteEdgeConnectivity(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMengerDisjointPathsEqualCut(t *testing.T) {
	// Menger: the number of vertex-disjoint paths equals the minimum vertex
	// cut for non-adjacent pairs.
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 4
		g := randomGraph(n, uint64(seed))
		for s := 0; s < n; s++ {
			for t2 := s + 1; t2 < n; t2++ {
				if g.HasEdge(s, t2) {
					continue
				}
				paths, err := VertexDisjointPaths(g, s, t2)
				if err != nil {
					return false
				}
				cut, err := VertexCut(g, s, t2)
				if err != nil {
					return false
				}
				if len(paths) != cut {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCutSetDisconnects(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 4
		g := randomGraph(n, uint64(seed))
		for s := 0; s < n; s++ {
			for t2 := s + 1; t2 < n; t2++ {
				if g.HasEdge(s, t2) {
					continue
				}
				want, err := VertexCut(g, s, t2)
				if err != nil {
					return false
				}
				cut, err := MinVertexCutSet(g, s, t2)
				if err != nil || len(cut) != want {
					return false
				}
				removed := make([]bool, n)
				for _, v := range cut {
					if v == s || v == t2 {
						return false // terminals may not be in the cut
					}
					removed[v] = true
				}
				// s and t2 must end up in different components.
				if reachableAvoiding(g, s, t2, removed) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func reachableAvoiding(g *graph.Graph, s, t int, removed []bool) bool {
	seen := make([]bool, g.Order())
	seen[s] = true
	stack := []int{s}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == t {
			return true
		}
		for _, v := range g.Neighbors(u) {
			if !seen[v] && !removed[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// TestPropertyEarlyExitAgreesWithExact pins the early-exit pair batch to
// the exact pair cuts: VertexCutsAtLeast(c) on one non-adjacent pair must
// agree with VertexCut >= c for every pair and every c, and on all of
// them at once with the smallest such cut >= c.
func TestPropertyEarlyExitAgreesWithExact(t *testing.T) {
	ctx := context.Background()
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 3
		g := randomGraph(n, uint64(seed))
		var all [][2]int
		least := inf
		for s := 0; s < n; s++ {
			for u := s + 1; u < n; u++ {
				if g.HasEdge(s, u) {
					continue
				}
				vcut := must(VertexCut(g, s, u))
				all = append(all, [2]int{s, u})
				least = min(least, vcut)
				for c := 0; c <= n; c++ {
					ok, err := VertexCutsAtLeast(ctx, g, [][2]int{{s, u}}, c, 1)
					if err != nil || ok != (vcut >= c) {
						return false
					}
				}
			}
		}
		for c := 0; c <= n; c++ {
			ok, err := VertexCutsAtLeast(ctx, g, all, c, 1)
			if err != nil || ok != (least >= c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochWrapKeepsSearchesExact drives a network across the int32 wrap
// of its visit stamps. Every stamp is seeded with 1, the s-side stamp of
// the first search after the wrap, as a search 2^31 earlier would have
// left it: it must not read as visited, so every probe keeps its exact
// value.
func TestEpochWrapKeepsSearchesExact(t *testing.T) {
	g := randomGraph(12, 7)
	want := make(map[[2]int]int)
	for s := 0; s < 12; s++ {
		for u := s + 1; u < 12; u++ {
			want[[2]int{s, u}] = must(EdgeCut(g, s, u))
		}
	}
	nw := getNetwork(g.Order())
	defer putNetwork(nw)
	nw.buildEdge(g, noEdge)
	stale := nw.stamp[:cap(nw.stamp)]
	for i := range stale {
		stale[i] = 1
	}
	nw.epoch = math.MaxInt32 - 1 // the first search wraps
	for round := 0; round < 3; round++ {
		for s := 0; s < 12; s++ {
			for u := s + 1; u < 12; u++ {
				nw.rearm()
				if got := nw.maxflow(s, u, -1); got != want[[2]int{s, u}] {
					t.Fatalf("round %d, pair (%d,%d), epoch %d: flow %d, want %d",
						round, s, u, nw.epoch, got, want[[2]int{s, u}])
				}
			}
		}
	}
	if nw.epoch > 1<<20 {
		t.Fatalf("epoch %d never wrapped", nw.epoch)
	}
}
