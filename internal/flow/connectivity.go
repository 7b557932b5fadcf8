package flow

import (
	"context"
	"fmt"

	"lhg/internal/graph"
)

// stVertexFlow returns the maximum number of internally vertex-disjoint
// s-t paths for a non-adjacent pair in G−skip (noEdge masks nothing),
// early-exiting at limit if limit >= 0. The masked edge never enters the
// network, so removal probes cost one flow, not one clone.
func stVertexFlow(g *graph.Graph, s, t, limit int, skip graph.Edge) int {
	nw := getNetwork(2 * g.Order())
	nw.buildVertex(g, s, t, g.Order()+1, skip)
	f := nw.maxflow(2*s+1, 2*t, limit)
	putNetwork(nw)
	return f
}

// stEdgeFlow returns the maximum s-t flow in the edge network of G−skip,
// early-exiting at limit; see stVertexFlow.
func stEdgeFlow(g *graph.Graph, s, t, limit int, skip graph.Edge) int {
	nw := getNetwork(g.Order())
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
	return stEdgeFlow(g, s, t, -1, noEdge), nil
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
	return stVertexFlow(g, s, t, -1, noEdge), nil
}

// VertexCutsAtLeast reports whether every listed pair keeps an s-t vertex
// cut of at least c nodes. Every pair must be valid and non-adjacent. It
// is the probe batch of the incremental re-verification in
// internal/check: the pairs run through the κ sweep's driver on one
// split-node arena, across `workers` goroutines as VertexConnectivity
// does, and each probe is a re-arm plus one max flow that stops after c
// disjoint paths. No pair, or c <= 0, builds nothing. A canceled batch
// returns ctx.Err() and no verdict.
func VertexCutsAtLeast(ctx context.Context, g *graph.Graph, pairs [][2]int, c, workers int) (bool, error) {
	for _, p := range pairs {
		if err := validatePair(g, p[0], p[1]); err != nil {
			return false, err
		}
		if g.HasEdge(p[0], p[1]) {
			return false, fmt.Errorf("flow: no vertex cut separates adjacent nodes %d and %d", p[0], p[1])
		}
	}
	n := g.Order()
	least, err := sweepMin(ctx, "flow.pairs.worker", len(pairs), workers, c, 2*n,
		func(nw *network) { nw.buildVertexBase(g, n+1, noEdge) },
		func(nw *network, i, limit int) int {
			s, t := pairs[i][0], pairs[i][1]
			nw.armVertexPair(s, t)
			return nw.maxflow(2*s+1, 2*t, limit)
		})
	if err != nil {
		return false, err
	}
	return least >= c, nil
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
// n/(δ+1) probes instead of the classic n−1. Every probed target joins
// the source side of its worker's later probes (lambdaProbe).
// Disconnected graphs and graphs with fewer than two nodes have λ = 0.
func EdgeConnectivity(ctx context.Context, g *graph.Graph, workers int) (int, error) {
	n := g.Order()
	if n < 2 {
		return 0, ctx.Err()
	}
	best, _ := g.MinDegree()
	d0, targets := lambdaProbePlan(g)
	return sweepMin(ctx, "flow.lambda.worker", len(targets), workers, best, n,
		func(nw *network) { nw.buildEdge(g, noEdge) },
		func(nw *network, i, limit int) int { return lambdaProbe(nw, d0, targets[i], limit) })
}

// lambdaProbe is one probe of the shared-pivot λ sweep: the d0-t flow on
// a buildEdge arena, from d0 and every target this network probed before,
// early-exiting at limit. Afterwards t joins those sources, whatever the
// probe returned. That keeps the sweep's contract: a value below limit is
// λ(d0,t), and any other value means λ(d0,t) ≥ limit. Each earlier target
// t₀ has λ(d0,t₀) at least the running minimum, which is at least limit, so
// every cut below limit that separates d0 from t has t₀ on d0's side and
// separates the whole source set from t; and a cut that separates the
// source set from t separates d0 from t.
func lambdaProbe(nw *network, d0, t, limit int) int {
	nw.rearm()
	f := nw.maxflow(d0, t, limit)
	nw.addSource(t)
	return f
}

// VertexConnectivity returns the global vertex connectivity κ(G) using the
// Esfahanian–Hakimi reduction, probing under ctx across `workers`
// goroutines (workers <= 0 means GOMAXPROCS, 1 runs serially on the
// caller): pick a minimum-degree node v; every minimum vertex cut either
// avoids v (then it separates v from some non-neighbor) or contains v
// (then, by minimality, v has neighbors in two different components, and
// those neighbors form a non-adjacent pair). The first part skips an
// independent set of its targets, which cannot change the result (see
// vertexProbePairs), and grows a source set like the λ sweep (see
// kappaProbe). The complete graph K_n has connectivity n-1 by convention.
// A canceled sweep returns ctx.Err() and no value.
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
		func(nw *network, i, limit int) int { return kappaProbe(nw, v, pairs[i], limit) })
}

// kappaProbe is one probe of the κ sweep on a buildVertexBase arena,
// early-exiting at limit. A probe of v against a non-neighbor t runs from
// v_out and from the in-node t₀_in of every earlier such target t₀ of this
// network, and then t_in joins those sources. The reason is the λ sweep's
// (see lambdaProbe), with one more case: an earlier target t₀ may lie in a
// vertex cut C below limit that separates v from t. The split-node cut of
// C then has t₀_in on the source side and t₀_out on the sink side, so
// t₀_in may be a source and t₀_out must not be one (the rearm drops t₀'s
// terminal boost). A neighbor-pair probe has another source, so it first
// drops the extra sources; the v probes of this network after it then
// start a new set, which is sound because any subset of probed targets is.
func kappaProbe(nw *network, v int, p probePair, limit int) int {
	s, t := int(p.s), int(p.t)
	nw.armVertexPair(s, t)
	if s != v {
		nw.clearSources()
		return nw.maxflow(2*s+1, 2*t, limit)
	}
	f := nw.maxflow(2*v+1, 2*t, limit)
	nw.addSource(2 * t)
	return f
}

// probePair is one s-t vertex-cut probe of the Esfahanian–Hakimi sweep.
type probePair struct{ s, t int32 }

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
			pairs = append(pairs, probePair{int32(v), int32(t)})
		}
	}
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !g.HasEdge(nbrs[i], nbrs[j]) {
				pairs = append(pairs, probePair{int32(nbrs[i]), int32(nbrs[j])})
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
	return stEdgeFlow(g, e.U, e.V, lambda, e) >= lambda &&
		stVertexFlow(g, e.U, e.V, kappa, e) >= kappa
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
	// the target of the last probe that lowered the minimum. Its value is
	// λ(d0, bestT) (see lambdaProbe), so the d0-bestT cut is a minimum.
	bestT := -1
	if _, err := sweepMin(context.TODO(), "flow.lambda.worker", len(targets), 1, minDeg, n,
		func(nw *network) { nw.buildEdge(g, noEdge) },
		func(nw *network, i, limit int) int {
			f := lambdaProbe(nw, d0, targets[i], limit)
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
