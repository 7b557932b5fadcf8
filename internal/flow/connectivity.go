package flow

import (
	"context"
	"fmt"

	"lhg/internal/graph"
)

// stVertexFlow returns the maximum number of internally vertex-disjoint
// s-t paths for a non-adjacent pair in G−skip (noEdge masks nothing),
// early-exiting at limit if limit >= 0. The masked edge never enters the
// network, so removal probes cost one flow, not one clone. The probe is
// armed with ctx: cancellation stops it between augmenting paths, and the
// caller is responsible for checking ctx afterwards (a canceled probe
// returns a lower bound, not the exact value).
func stVertexFlow(ctx context.Context, g *graph.Graph, s, t, limit int, skip graph.Edge) int {
	nw := getNetwork(2 * g.Order())
	nw.watch(ctx)
	nw.buildVertex(g, s, t, g.Order()+1, skip)
	f := nw.maxflow(2*s+1, 2*t, limit)
	putNetwork(nw)
	return f
}

// stEdgeFlow returns the maximum s-t flow in the edge network of G−skip,
// early-exiting at limit; see stVertexFlow.
func stEdgeFlow(ctx context.Context, g *graph.Graph, s, t, limit int, skip graph.Edge) int {
	nw := getNetwork(g.Order())
	nw.watch(ctx)
	nw.buildEdge(g, skip)
	f := nw.maxflow(s, t, limit)
	putNetwork(nw)
	return f
}

// EdgeCut returns the size of a minimum s-t edge cut (equivalently the
// maximum number of edge-disjoint s-t paths).
func EdgeCut(g *graph.Graph, s, t int) (int, error) {
	if err := validatePair(g, s, t); err != nil {
		return 0, err
	}
	return stEdgeFlow(context.Background(), g, s, t, -1, noEdge), nil
}

// VertexCut returns the size of a minimum s-t vertex cut. s and t must be
// non-adjacent (no node set separates adjacent nodes).
func VertexCut(g *graph.Graph, s, t int) (int, error) {
	if err := validatePair(g, s, t); err != nil {
		return 0, err
	}
	if g.HasEdge(s, t) {
		return 0, fmt.Errorf("flow: no vertex cut separates adjacent nodes %d and %d", s, t)
	}
	return stVertexFlow(context.Background(), g, s, t, -1, noEdge), nil
}

// VertexCutAtLeast reports whether every s-t vertex cut has at least c
// nodes, using one early-exit max flow (the probe stops as soon as c
// disjoint paths are found). s and t must be valid and non-adjacent. It is
// the primitive of the incremental re-verification in internal/check: a
// localized frontier probe that never pays for the exact cut value.
func VertexCutAtLeast(ctx context.Context, g *graph.Graph, s, t, c int) (bool, error) {
	if err := validatePair(g, s, t); err != nil {
		return false, err
	}
	if c <= 0 {
		return true, ctx.Err()
	}
	if g.HasEdge(s, t) {
		return false, fmt.Errorf("flow: no vertex cut separates adjacent nodes %d and %d", s, t)
	}
	ok := stVertexFlow(ctx, g, s, t, c, noEdge) >= c
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return ok, nil
}

// EdgeCutAtLeast reports whether every s-t edge cut has at least c
// edges, using one early-exit max flow; see VertexCutAtLeast.
func EdgeCutAtLeast(ctx context.Context, g *graph.Graph, s, t, c int) (bool, error) {
	if err := validatePair(g, s, t); err != nil {
		return false, err
	}
	if c <= 0 {
		return true, ctx.Err()
	}
	ok := stEdgeFlow(ctx, g, s, t, c, noEdge) >= c
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return ok, nil
}

// MinVertexCutSet returns an actual minimum vertex cut separating
// non-adjacent s and t: a smallest node set whose removal disconnects them.
func MinVertexCutSet(g *graph.Graph, s, t int) ([]int, error) {
	if err := validatePair(g, s, t); err != nil {
		return nil, err
	}
	if g.HasEdge(s, t) {
		return nil, fmt.Errorf("flow: no vertex cut separates adjacent nodes %d and %d", s, t)
	}
	nw := getNetwork(2 * g.Order())
	defer putNetwork(nw)
	nw.buildVertex(g, s, t, g.Order()+1, noEdge)
	nw.maxflow(2*s+1, 2*t, -1)
	reach := nw.residualReach(2*s + 1)
	var cut []int
	for v := 0; v < g.Order(); v++ {
		if reach[2*v] && !reach[2*v+1] {
			cut = append(cut, v)
		}
	}
	return cut, nil
}

// EdgeConnectivity returns the global edge connectivity λ(G) — the
// minimum number of edges whose removal disconnects G — computing the
// min-cut probes under ctx across `workers` goroutines (workers <= 0 means
// GOMAXPROCS, 1 runs serially on the caller). Cancellation is polled
// between probes and between augmenting-path iterations inside each probe;
// a canceled sweep returns ctx.Err() and no value.
//
// The probe set is the shared dominating-set plan (see lambdaProbePlan):
// λ(G) = min(δ, min over dominating-set pairs), which needs roughly
// n/(δ+1) probes instead of the classic n−1. Disconnected graphs and
// graphs with fewer than two nodes have λ = 0.
func EdgeConnectivity(ctx context.Context, g *graph.Graph, workers int) (int, error) {
	n := g.Order()
	if n < 2 {
		return 0, ctx.Err()
	}
	best, _ := g.MinDegree()
	d0, targets := lambdaProbePlan(g)
	return sweepMin(ctx, "flow.lambda.worker", len(targets), workers, best, n,
		func(nw *network) { nw.buildEdge(g, noEdge) },
		func(nw *network, i, limit int) int {
			nw.rearm()
			return nw.maxflow(d0, targets[i], limit)
		})
}

// VertexConnectivity returns the global vertex connectivity κ(G) using the
// Esfahanian–Hakimi reduction, probing under ctx across `workers`
// goroutines (workers <= 0 means GOMAXPROCS, 1 runs serially on the
// caller): pick a minimum-degree node v; every minimum vertex cut either
// avoids v (then it separates v from some non-neighbor) or contains v
// (then, by minimality, v has neighbors in two different components, and
// those neighbors form a non-adjacent pair). The first part skips an
// independent set of its targets, which cannot change the result (see
// vertexProbePairs). The complete graph K_n has connectivity n-1 by
// convention. A canceled sweep returns ctx.Err() and no value.
func VertexConnectivity(ctx context.Context, g *graph.Graph, workers int) (int, error) {
	n := g.Order()
	if n < 2 || !g.Connected() {
		return 0, ctx.Err()
	}
	minDeg, v := g.MinDegree()
	if minDeg == n-1 { // complete graph
		return n - 1, ctx.Err()
	}
	pairs := vertexProbePairs(g, v)
	// One split-node arena; each probe re-arms it for its pair. The sweep
	// starts at δ, since κ(G) <= δ(G).
	return sweepMin(ctx, "flow.kappa.worker", len(pairs), workers, minDeg, 2*n,
		func(nw *network) { nw.buildVertexBase(g, n+1, noEdge) },
		func(nw *network, i, limit int) int {
			p := pairs[i]
			nw.armVertexPair(p.s, p.t)
			return nw.maxflow(2*p.s+1, 2*p.t, limit)
		})
}

// probePair is one s-t vertex-cut probe of the Esfahanian–Hakimi sweep.
type probePair struct{ s, t int }

// vertexProbePairs collects the probe pairs of both reduction parts for
// minimum-degree node v: v against every non-neighbor outside a greedy
// independent set I of G−N[v] (taken in id order), then every
// non-adjacent pair of v's neighbors.
//
// Skipping I cannot change κ. Let M be the sweep minimum over δ and the
// probed pairs, and suppose some v-t separator S with t ∈ I had
// |S| < M ≤ δ ≤ deg(t). Then t has a neighbor w ∉ S. If w ∈ N(v), the
// path v–w–t avoids S. Otherwise w ∉ I (I is independent), so (v,w) is
// probed; w lies on t's side of S, so κ(v,w) ≤ |S| < M, yet M is at most
// every probed value. An early-exit probe that stops at its limit
// certifies κ(v,w) ≥ limit ≥ M, so the argument holds for the limits the
// sweep actually uses.
func vertexProbePairs(g *graph.Graph, v int) []probePair {
	const (
		open   = iota // a non-neighbor of v not yet classified
		closed        // a node of N[v]
		inI           // a member of the skipped independent set
		probed        // a non-neighbor of v probed against v
	)
	class := make([]uint8, g.Order())
	class[v] = closed
	nbrs := g.Neighbors(v)
	for _, w := range nbrs {
		class[w] = closed
	}
	count := len(nbrs) * (len(nbrs) - 1) / 2 // bounds the neighbor pairs
	for t, c := range class {
		if c != open {
			continue
		}
		class[t] = inI
		g.EachNeighbor(t, func(w int) {
			if class[w] == inI {
				class[t] = probed
			}
		})
		if class[t] == probed {
			count++
		}
	}
	pairs := make([]probePair, 0, count)
	for t, c := range class {
		if c == probed {
			pairs = append(pairs, probePair{v, t})
		}
	}
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !g.HasEdge(nbrs[i], nbrs[j]) {
				pairs = append(pairs, probePair{nbrs[i], nbrs[j]})
			}
		}
	}
	return pairs
}

// EdgeIsRemovable reports whether removing e=(u,v) keeps both the node
// connectivity at kappa and the link connectivity at lambda — i.e. whether
// e witnesses a P3 (link-minimality) violation. It costs two single-pair
// max flows on the masked view instead of 2n flows on a clone, by the
// classic localization lemma:
//
//	λ(G−e) < λ(G)  ⟺  the u-v min edge cut in G−e has size < λ(G), and
//	κ(G−e) < κ(G)  ⟺  the u-v min vertex cut in G−e has size < κ(G).
//
// Both directions follow from the fact that a small cut of G−e that fails
// to separate u from v would already be a small cut of G: only cuts that
// e itself bridged can shrink. (u and v are non-adjacent in G−e, so the
// vertex-cut query is well defined.)
func EdgeIsRemovable(g *graph.Graph, e graph.Edge, kappa, lambda int) bool {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	if d := min(g.Degree(e.U), g.Degree(e.V)); d <= lambda || d <= kappa {
		// Degree shortcut: both probes are bounded by the endpoint degrees
		// in G−e, so an endpoint of degree <= lambda (<= kappa) forces the
		// λ (κ) probe under the bar. Same verdict as the probes, no flow.
		return false
	}
	ctx := context.Background()
	return stEdgeFlow(ctx, g, e.U, e.V, lambda, e) >= lambda &&
		stVertexFlow(ctx, g, e.U, e.V, kappa, e) >= kappa
}

// VertexDisjointPaths returns a maximum set of pairwise internally
// vertex-disjoint s-t paths (each as a node sequence from s to t). For
// adjacent s,t the direct edge is one of the paths.
func VertexDisjointPaths(g *graph.Graph, s, t int) ([][]int, error) {
	if err := validatePair(g, s, t); err != nil {
		return nil, err
	}
	nw := getNetwork(2 * g.Order())
	defer putNetwork(nw)
	nw.buildVertex(g, s, t, 1, noEdge)
	count := nw.maxflow(2*s+1, 2*t, -1)
	// Decompose the flow: each saturated forward edge arc uOut->vIn carries
	// one unit. Walking from s along unconsumed flow arcs yields the paths;
	// flow conservation guarantees each walk ends at t.
	n := g.Order()
	next := make([][]int, n)
	for u := 0; u < n; u++ {
		for _, e := range nw.arcs(int32(2*u + 1)) {
			// Forward arcs have even indices (addArc appends pairs). Skip
			// reverses and the node-internal reverse arc.
			if e%2 != 0 {
				continue
			}
			v := int(nw.to[e]) / 2
			if v == u || nw.cap[e] != 0 {
				continue // not an edge arc carrying flow
			}
			next[u] = append(next[u], v)
		}
	}
	paths := make([][]int, 0, count)
	for i := 0; i < count; i++ {
		path := []int{s}
		u := s
		for u != t {
			if len(next[u]) == 0 {
				return nil, fmt.Errorf("flow: path decomposition stuck at node %d", u)
			}
			v := next[u][0]
			next[u] = next[u][1:]
			path = append(path, v)
			u = v
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func validatePair(g *graph.Graph, s, t int) error {
	n := g.Order()
	if s < 0 || s >= n || t < 0 || t >= n {
		return fmt.Errorf("flow: node pair (%d,%d) out of range [0,%d)", s, t, n)
	}
	if s == t {
		return fmt.Errorf("flow: source and sink are both node %d", s)
	}
	return nil
}

// MinEdgeCutSet returns an actual minimum s-t edge cut: a smallest edge set
// whose removal disconnects s from t.
func MinEdgeCutSet(g *graph.Graph, s, t int) ([]graph.Edge, error) {
	if err := validatePair(g, s, t); err != nil {
		return nil, err
	}
	nw := getNetwork(g.Order())
	defer putNetwork(nw)
	nw.buildEdge(g, noEdge)
	nw.maxflow(s, t, -1)
	reach := nw.residualReach(s)
	var cut []graph.Edge
	for _, e := range g.Edges() {
		if reach[e.U] != reach[e.V] {
			cut = append(cut, e)
		}
	}
	return cut, nil
}

// GlobalMinEdgeCutSet returns a minimum edge cut of the whole graph: the
// smallest link set whose removal disconnects G.
func GlobalMinEdgeCutSet(g *graph.Graph) ([]graph.Edge, error) {
	n := g.Order()
	if n < 2 {
		return nil, fmt.Errorf("flow: no cut in a graph with %d nodes", n)
	}
	minDeg, mv := g.MinDegree()
	d0, targets := lambdaProbePlan(g)
	// One worker, so the probes run in order on the caller and bestT is
	// the target of the last probe that lowered the minimum.
	bestT := -1
	if _, err := sweepMin(context.TODO(), "flow.lambda.worker", len(targets), 1, minDeg, n,
		func(nw *network) { nw.buildEdge(g, noEdge) },
		func(nw *network, i, limit int) int {
			nw.rearm()
			f := nw.maxflow(d0, targets[i], limit)
			if f < limit {
				bestT = targets[i]
			}
			return f
		}); err != nil {
		return nil, err
	}
	if bestT >= 0 {
		return MinEdgeCutSet(g, d0, bestT)
	}
	// No dominating-set pair beat δ, so λ = δ and the star of a
	// minimum-degree node is a minimum cut.
	var cut []graph.Edge
	for _, w := range g.Neighbors(mv) {
		e := graph.Edge{U: mv, V: w}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		cut = append(cut, e)
	}
	return cut, nil
}
