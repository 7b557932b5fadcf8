// Package graph provides the undirected-graph substrate used by every other
// module in this repository: adjacency storage, traversal, distance and
// degree queries, and deterministic iteration order.
//
// The package follows a two-phase build/freeze design:
//
//   - Builder is the mutable phase: append nodes and edges freely (and, for
//     the incremental growers, remove them); nothing is kept sorted while
//     building.
//   - Graph is the frozen phase: an immutable compressed-sparse-row (CSR)
//     view produced by Builder.Freeze or by the bulk constructors New and
//     FromEdges. A frozen Graph is never mutated, so it is safe to share
//     across goroutines without cloning — the property the parallel
//     verification pipeline in internal/check relies on.
//
// Nodes are dense non-negative integers in [0, Order()). All operations are
// deterministic: neighbor rows are sorted at freeze time so that algorithms
// built on top (constructions, floods, encodings) are reproducible run to
// run.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable simple undirected graph (no self-loops, no
// multi-edges) over nodes 0..n-1, stored in compressed sparse row form: one
// flat neighbor array indexed by per-node offsets. The zero value is an
// empty graph with no nodes.
//
// Graphs are produced by Builder.Freeze, New or FromEdges and are never
// modified afterwards; every method is safe for concurrent use. To derive a
// modified topology, use Thaw (full mutability) or WithoutEdge (single-edge
// removal).
type Graph struct {
	off   []int32 // off[v]..off[v+1] delimits v's row in nbr; len n+1
	nbr   []int32 // concatenated sorted neighbor rows; len 2m
	edges int
}

// New returns an empty (edgeless) frozen graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{off: make([]int32, n+1)}
}

// FromEdges bulk-builds a frozen graph over n nodes from an edge list,
// sorting each adjacency row exactly once (instead of maintaining sorted
// order per insertion). Duplicate edges are coalesced; an out-of-range
// endpoint or a self-loop is an error. This is the preferred constructor
// for decode paths and any caller that already holds a complete edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	deg := make([]int32, n+1)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop on node %d", e.U)
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	off := deg
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	nbr := make([]int32, off[n])
	fill := make([]int32, n)
	for _, e := range edges {
		nbr[off[e.U]+fill[e.U]] = int32(e.V)
		fill[e.U]++
		nbr[off[e.V]+fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	g := &Graph{off: off, nbr: nbr}
	g.sortRows()
	g.dedupRows()
	return g, nil
}

// MustFromEdges is FromEdges for callers that guarantee valid input; it
// panics on error.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sortRows sorts every adjacency row in place.
func (g *Graph) sortRows() {
	n := g.Order()
	for v := 0; v < n; v++ {
		row := g.nbr[g.off[v]:g.off[v+1]]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
}

// dedupRows removes duplicate entries from every (sorted) row, compacting
// nbr and rebuilding the offsets, and recounts the edges.
func (g *Graph) dedupRows() {
	n := g.Order()
	w := int32(0)
	for v := 0; v < n; v++ {
		start, end := g.off[v], g.off[v+1]
		g.off[v] = w
		for i := start; i < end; i++ {
			if i > start && g.nbr[i] == g.nbr[i-1] {
				continue
			}
			g.nbr[w] = g.nbr[i]
			w++
		}
	}
	g.off[n] = w
	g.nbr = g.nbr[:w]
	g.edges = int(w) / 2
}

// row returns v's neighbor row (shared storage — callers must not mutate).
func (g *Graph) row(v int) []int32 {
	return g.nbr[g.off[v]:g.off[v+1]]
}

// Order returns the number of nodes.
func (g *Graph) Order() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// Size returns the number of edges.
func (g *Graph) Size() int { return g.edges }

// Thaw returns a new Builder pre-loaded with g's nodes and edges; mutations
// on the builder never affect g.
func (g *Graph) Thaw() *Builder {
	b := NewBuilder(g.Order())
	b.edges = g.edges
	for v := range b.adj {
		b.adj[v] = append([]int32(nil), g.row(v)...)
	}
	return b
}

// WithoutEdge returns a frozen copy of g with the single edge (u,v)
// removed (or g itself if the edge is absent). It is a cheap O(n+m) row
// copy — no builder round-trip — for callers probing edge removals.
func (g *Graph) WithoutEdge(u, v int) *Graph {
	if !g.HasEdge(u, v) {
		return g
	}
	n := g.Order()
	h := &Graph{
		off:   make([]int32, n+1),
		nbr:   make([]int32, 0, len(g.nbr)-2),
		edges: g.edges - 1,
	}
	for w := 0; w < n; w++ {
		for _, x := range g.row(w) {
			if (w == u && int(x) == v) || (w == v && int(x) == u) {
				continue
			}
			h.nbr = append(h.nbr, x)
		}
		h.off[w+1] = int32(len(h.nbr))
	}
	return h
}

// HasEdge reports whether the edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	n := g.Order()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	row := g.row(u)
	if r := g.row(v); len(r) < len(row) {
		row, v = r, u
	}
	i := sort.Search(len(row), func(i int) bool { return int(row[i]) >= v })
	return i < len(row) && int(row[i]) == v
}

// Degree returns the degree of node v, or 0 if v is out of range.
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= g.Order() {
		return 0
	}
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice is a
// copy; callers may mutate it freely.
func (g *Graph) Neighbors(v int) []int {
	if v < 0 || v >= g.Order() {
		return nil
	}
	row := g.row(v)
	out := make([]int, len(row))
	for i, w := range row {
		out[i] = int(w)
	}
	return out
}

// NeighborRank returns how many neighbors of v are smaller than w: w's
// position in v's sorted neighbor row when w is a neighbor. It is 0 if v
// is out of range.
func (g *Graph) NeighborRank(v, w int) int {
	if v < 0 || v >= g.Order() {
		return 0
	}
	row := g.row(v)
	return sort.Search(len(row), func(i int) bool { return int(row[i]) >= w })
}

// EachNeighbor calls fn for every neighbor of v in ascending order. It
// avoids the copy made by Neighbors for hot paths.
func (g *Graph) EachNeighbor(v int, fn func(w int)) {
	if v < 0 || v >= g.Order() {
		return
	}
	for _, w := range g.row(v) {
		fn(int(w))
	}
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

// Edges returns every edge exactly once, ordered by (U,V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	g.EachEdge(func(u, v int) {
		out = append(out, Edge{U: u, V: v})
	})
	return out
}

// EachEdge calls fn for every edge exactly once with u < v, ordered by
// (u,v). It is the allocation-free alternative to Edges for hot paths such
// as flow-network assembly.
func (g *Graph) EachEdge(fn func(u, v int)) {
	n := g.Order()
	for u := 0; u < n; u++ {
		for _, w := range g.row(u) {
			if v := int(w); u < v {
				fn(u, v)
			}
		}
	}
}

// Degrees returns the degree sequence indexed by node.
func (g *Graph) Degrees() []int {
	out := make([]int, g.Order())
	for v := range out {
		out[v] = g.Degree(v)
	}
	return out
}

// MinDegree returns the smallest degree and one node attaining it.
// It returns (-1, -1) for the empty graph.
func (g *Graph) MinDegree() (deg, node int) {
	n := g.Order()
	if n == 0 {
		return -1, -1
	}
	deg, node = g.Degree(0), 0
	for v := 1; v < n; v++ {
		if d := g.Degree(v); d < deg {
			deg, node = d, v
		}
	}
	return deg, node
}

// MaxDegree returns the largest degree and one node attaining it.
// It returns (-1, -1) for the empty graph.
func (g *Graph) MaxDegree() (deg, node int) {
	n := g.Order()
	if n == 0 {
		return -1, -1
	}
	deg, node = g.Degree(0), 0
	for v := 1; v < n; v++ {
		if d := g.Degree(v); d > deg {
			deg, node = d, v
		}
	}
	return deg, node
}

// IsRegular reports whether every node has degree exactly k.
func (g *Graph) IsRegular(k int) bool {
	for v, n := 0, g.Order(); v < n; v++ {
		if g.Degree(v) != k {
			return false
		}
	}
	return true
}
