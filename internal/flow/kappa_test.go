package flow

import (
	"context"
	"testing"

	"lhg/internal/graph"
)

// gnp returns a seeded G(n, p) sample with edge probability p = num/16,
// so one seed stream covers sparse graphs with cut vertices and small
// separators as well as near-complete ones.
func gnp(n int, num uint64, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	state := seed*0x9e3779b97f4a7c15 | 1
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			if state%16 < num {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Freeze()
}

// TestVertexConnectivityMatchesNaive is the differential behind the κ
// sweep's probe set: Esfahanian–Hakimi with the independent-set cut of
// vertexProbePairs must equal the all-pairs definition on thousands of
// seeded random graphs, for every worker count (parallel sweeps run with
// stale early-exit limits). The race detector slows the all-pairs oracle
// ~25×, and the data races it looks for do not depend on how many graphs
// run, so a -race build checks the first tenth of the stream.
func TestVertexConnectivityMatchesNaive(t *testing.T) {
	graphs := uint64(5000)
	if raceEnabled {
		graphs = 500
	}
	for i := uint64(0); i < graphs; i++ {
		n := 4 + int(i%18)   // 4..21
		num := 2 + (i/18)%13 // p from 2/16 to 14/16
		g := gnp(n, num, i+1)
		want := naiveVertexConnectivity(g)
		for workers := 1; workers <= 3; workers++ {
			if got := kappaWith(g, workers); got != want {
				t.Fatalf("graph %d (n=%d, p=%d/16), workers=%d: κ=%d, all-pairs κ=%d\nedges: %v",
					i, n, num, workers, got, want, g.Edges())
			}
		}
	}
}

// TestVertexCutsAtLeastMatchesPairCuts is the differential behind the
// delta verifier's probe batch: on seeded random graphs, a batch of
// non-adjacent pairs passes VertexCutsAtLeast(c) exactly when the
// smallest of their VertexCut values (a fresh network per pair) is at
// least c, for c below, at and above that minimum and for one to three
// workers. An empty batch passes, and a batch holding an adjacent,
// degenerate (s = t) or out-of-range pair is an error. A -race build
// checks the first tenth of the stream.
func TestVertexCutsAtLeastMatchesPairCuts(t *testing.T) {
	ctx := context.Background()
	graphs := uint64(400)
	if raceEnabled {
		graphs = 40
	}
	for i := uint64(0); i < graphs; i++ {
		n := 4 + int(i%14)   // 4..17
		num := 2 + (i/14)%13 // p from 2/16 to 14/16
		g := gnp(n, num, i+1)
		var pairs [][2]int
		least := inf
		for s := 0; s < n; s++ {
			for u := s + 1; u < n; u++ {
				if g.HasEdge(s, u) || (uint64(s*31+u*17)+i)%3 == 0 {
					continue
				}
				pairs = append(pairs, [2]int{u, s}) // either orientation works
				least = min(least, must(VertexCut(g, s, u)))
			}
		}
		if len(pairs) == 0 {
			if ok, err := VertexCutsAtLeast(ctx, g, nil, n, 1); !ok || err != nil {
				t.Fatalf("graph %d: empty batch = %t, %v; want true", i, ok, err)
			}
			continue
		}
		for _, c := range []int{least - 1, least, least + 1} {
			for workers := 1; workers <= 3; workers++ {
				ok, err := VertexCutsAtLeast(ctx, g, pairs, c, workers)
				if err != nil || ok != (least >= c) {
					t.Fatalf("graph %d (n=%d, p=%d/16), %d pairs, c=%d, workers=%d: %t, %v; smallest pair cut %d",
						i, n, num, len(pairs), c, workers, ok, err, least)
				}
			}
		}
	}
	g := cycle(6)
	for _, bad := range [][][2]int{{{0, 1}}, {{0, 3}, {2, 2}}, {{0, 6}}, {{-1, 3}}} {
		if _, err := VertexCutsAtLeast(ctx, g, bad, 2, 1); err == nil {
			t.Fatalf("pairs %v: want an error", bad)
		}
	}
}

// decodeGraph reads a small graph from fuzz bytes: the first byte picks
// n in [2, 17], the following bits (LSB first) say, pair by pair in
// (u, v) order, whether the edge u-v is present. Missing bits are absent
// edges.
func decodeGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.NewBuilder(2).Freeze()
	}
	n := 2 + int(data[0]%16)
	bits := data[1:]
	b := graph.NewBuilder(n)
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if i/8 < len(bits) && bits[i/8]>>(i%8)&1 == 1 {
				b.MustAddEdge(u, v)
			}
			i++
		}
	}
	return b.Freeze()
}

// encodeGraph is the inverse of decodeGraph for graphs of 2 to 17 nodes.
func encodeGraph(g *graph.Graph) []byte {
	n := g.Order()
	data := make([]byte, 1+(n*(n-1)/2+7)/8)
	data[0] = byte(n - 2)
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(u, v) {
				data[1+i/8] |= 1 << (i % 8)
			}
			i++
		}
	}
	return data
}

// addClique joins every two of nodes.
func addClique(b *graph.Builder, nodes ...int) {
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			b.MustAddEdge(u, v)
		}
	}
}

// cutThroughMinDegreeNode is two K8 blocks {0..7} and {8..15} joined by
// the edges 6–14 and 7–15, plus node 16 adjacent to 0, 1, 8 and 9. Node
// 16 is the unique minimum-degree node, and every minimum vertex cut
// (for example {16, 6, 7}) contains it, so κ = 3 is found only by the
// neighbor-pair probes of the κ sweep, never by a probe from node 16.
func cutThroughMinDegreeNode() *graph.Graph {
	b := graph.NewBuilder(17)
	addClique(b, 0, 1, 2, 3, 4, 5, 6, 7)
	addClique(b, 8, 9, 10, 11, 12, 13, 14, 15)
	b.MustAddEdge(6, 14)
	b.MustAddEdge(7, 15)
	for _, w := range []int{0, 1, 8, 9} {
		b.MustAddEdge(16, w)
	}
	return b.Freeze()
}

// TestVertexConnectivityCutThroughMinDegreeNode pins the neighbor-pair
// probes of the κ sweep to their own source: they must not see the
// source set the v probes grew on the same network. A sweep that let
// those sources leak into them would see κ = 4 here.
func TestVertexConnectivityCutThroughMinDegreeNode(t *testing.T) {
	g := cutThroughMinDegreeNode()
	if d, v := g.MinDegree(); d != 4 || v != 16 {
		t.Fatalf("min degree %d at node %d, want 4 at node 16", d, v)
	}
	if want := naiveVertexConnectivity(g); want != 3 {
		t.Fatalf("all-pairs κ = %d, want 3", want)
	}
	for workers := 1; workers <= 3; workers++ {
		if got := kappaWith(g, workers); got != 3 {
			t.Fatalf("workers=%d: κ = %d, want 3", workers, got)
		}
	}
}

// cutThroughProbedTarget is v = 0 joined to the triangle {1, 2, 3}, which
// is joined completely to the edge {4, 5}, which is joined completely to
// the clique {6, 7, 8, 9}. Node 0 is the unique minimum-degree node, and
// its only minimum vertex cut {4, 5} holds node 5, a target the κ sweep
// probes (node 4 is its skipped independent-set member) before every
// target on the far side of the cut.
func cutThroughProbedTarget() *graph.Graph {
	b := graph.NewBuilder(10)
	addClique(b, 0, 1, 2, 3)
	addClique(b, 4, 5)
	addClique(b, 6, 7, 8, 9)
	for _, c := range []int{4, 5} {
		for _, u := range []int{1, 2, 3, 6, 7, 8, 9} {
			b.MustAddEdge(c, u)
		}
	}
	return b.Freeze()
}

// TestVertexConnectivityCutThroughProbedTarget pins which split node of a
// probed target joins the source set of the κ sweep: t_in, never t_out.
// Node 5 lies in the cut, so 5_out is on the sink side of it, and a sweep
// that made 5_out a source would see κ = 3 here.
func TestVertexConnectivityCutThroughProbedTarget(t *testing.T) {
	g := cutThroughProbedTarget()
	if d, v := g.MinDegree(); d != 3 || v != 0 {
		t.Fatalf("min degree %d at node %d, want 3 at node 0", d, v)
	}
	if want := naiveVertexConnectivity(g); want != 2 {
		t.Fatalf("all-pairs κ = %d, want 2", want)
	}
	for workers := 1; workers <= 3; workers++ {
		if got := kappaWith(g, workers); got != 2 {
			t.Fatalf("workers=%d: κ = %d, want 2", workers, got)
		}
	}
}

// FuzzVertexConnectivityNaive compares VertexConnectivity, serial and
// with two workers, against the all-pairs κ on graphs decoded from the
// fuzz input.
func FuzzVertexConnectivityNaive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0xff, 0xff})                   // K6
	f.Add([]byte{6, 0x49, 0x92, 0x24, 0x49, 0x92}) // sparse, 8 nodes
	f.Add([]byte{10, 0x0f, 0xf0, 0x33, 0xcc, 0x55, 0xaa, 0x96, 0x69})
	f.Add(encodeGraph(cutThroughMinDegreeNode()))
	f.Add(encodeGraph(cutThroughProbedTarget()))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		want := naiveVertexConnectivity(g)
		for workers := 1; workers <= 2; workers++ {
			if got := kappaWith(g, workers); got != want {
				t.Fatalf("workers=%d: κ=%d, all-pairs κ=%d\nn=%d edges: %v",
					workers, got, want, g.Order(), g.Edges())
			}
		}
	})
}

// naiveEdgeConnectivity is λ by its all-pairs definition: the smallest
// s-t edge cut over every pair of nodes. The pairs share one edge arena,
// re-armed per pair with no extra sources, and each flow early-exits at
// the running minimum.
func naiveEdgeConnectivity(g *graph.Graph) int {
	n := g.Order()
	if n < 2 {
		return 0
	}
	nw := getNetwork(n)
	defer putNetwork(nw)
	nw.buildEdge(g, noEdge)
	best := inf
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			nw.rearm()
			best = min(best, nw.maxflow(s, t, best))
		}
	}
	return best
}

// TestEdgeConnectivityMatchesNaive is the λ twin of
// TestVertexConnectivityMatchesNaive: the dominating-set sweep, whose
// probes grow a source set, must equal the all-pairs edge cut on the
// same seeded graphs for every worker count; a -race build checks the
// first tenth of the stream.
func TestEdgeConnectivityMatchesNaive(t *testing.T) {
	graphs := uint64(5000)
	if raceEnabled {
		graphs = 500
	}
	for i := uint64(0); i < graphs; i++ {
		n := 4 + int(i%18)   // 4..21
		num := 2 + (i/18)%13 // p from 2/16 to 14/16
		g := gnp(n, num, i+1)
		want := naiveEdgeConnectivity(g)
		for workers := 1; workers <= 3; workers++ {
			if got := lambdaWith(g, workers); got != want {
				t.Fatalf("graph %d (n=%d, p=%d/16), workers=%d: λ=%d, all-pairs λ=%d\nedges: %v",
					i, n, num, workers, got, want, g.Edges())
			}
		}
	}
}

// FuzzEdgeConnectivityNaive compares EdgeConnectivity, serial and with
// two workers, against the all-pairs λ on graphs decoded from the fuzz
// input.
func FuzzEdgeConnectivityNaive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0xff, 0xff})                   // K6
	f.Add([]byte{6, 0x49, 0x92, 0x24, 0x49, 0x92}) // sparse, 8 nodes
	f.Add([]byte{10, 0x0f, 0xf0, 0x33, 0xcc, 0x55, 0xaa, 0x96, 0x69})
	f.Add(encodeGraph(cutThroughMinDegreeNode()))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		want := naiveEdgeConnectivity(g)
		for workers := 1; workers <= 2; workers++ {
			if got := lambdaWith(g, workers); got != want {
				t.Fatalf("workers=%d: λ=%d, all-pairs λ=%d\nn=%d edges: %v",
					workers, got, want, g.Order(), g.Edges())
			}
		}
	})
}
