package flow

import (
	"context"

	"lhg/internal/graph"
)

// Restricted edge connectivity λ′(G): the size of a smallest edge cut whose
// removal disconnects G without isolating a single node — equivalently, the
// minimum over bipartitions (A,B) in which every node keeps a neighbor on
// its own side. It refines λ for fault-tolerance vocabularies (super-λ:
// every minimum cut isolates one node), and is computed here on the same
// flow arena as λ and κ.
//
// Reduction to pairwise flows: λ′(G) = min over vertex-disjoint edge pairs
// (e, f) of the minimum edge cut separating e's endpoints from f's, when
// every node of G has degree ≥ 1.
//
//   - (≤) A minimum cut separating V(e) from V(f) has no node isolated on
//     its own side: such a node w is not an endpoint of e or f (those keep
//     their edge partner), and moving w across strictly shrinks the cut —
//     contradicting minimality. So the pair cut is itself a restricted
//     bipartition.
//   - (≥) Any restricted bipartition keeps an edge on each side (every node
//     has a same-side neighbor), and those two edges are a vertex-disjoint
//     pair the bipartition separates.
//
// λ′ is undefined (-1 here) when no vertex-disjoint edge pair exists (stars,
// triangles, fewer than two edges) or when some node is isolated — then no
// bipartition can keep a neighbor on its side.

// edgePairProbe is one λ′ probe: canonical edge indices into g.Edges().
type edgePairProbe struct{ i, j int32 }

// restrictedPairs enumerates the vertex-disjoint canonical edge pairs.
func restrictedPairs(edges []graph.Edge) []edgePairProbe {
	var pairs []edgePairProbe
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			if edges[i].U == edges[j].U || edges[i].U == edges[j].V ||
				edges[i].V == edges[j].U || edges[i].V == edges[j].V {
				continue
			}
			pairs = append(pairs, edgePairProbe{int32(i), int32(j)})
		}
	}
	return pairs
}

// buildRestricted assembles the λ′ arena: the usual opposing unit-arc pair
// per edge on nodes 0..n-1, then a super source S=n and super sink T=n+1
// with pristine zero-capacity arcs S→v and v→T for every node. armEdgePair
// lifts four of those per probe, so the whole sweep is one topology.
func (nw *network) buildRestricted(g *graph.Graph) {
	n := g.Order()
	nw.reset(n + 2)
	nw.reserve(4*g.Size() + 4*n)
	g.EachEdge(func(u, v int) {
		nw.addArc(u, v, 1)
		nw.addArc(v, u, 1)
	})
	for v := 0; v < n; v++ {
		nw.addArc(n, v, 0)   // armed per probe: S reaches the source edge
		nw.addArc(v, n+1, 0) // armed per probe: the sink edge reaches T
	}
	nw.finish()
}

// armEdgePair rearms the pristine capacities and opens the terminal arcs of
// one probe: S feeds both endpoints of the source edge, both endpoints of
// the sink edge drain to T. Terminal capacity 2n exceeds any unit-capacity
// cut, so minimum cuts consist of graph arcs only. The terminal arcs of
// node v sit at 4m + 4v (S→v) and 4m + 4v + 2 (v→T) by construction.
func (nw *network) armEdgePair(m int, src, dst graph.Edge) {
	nw.rearm()
	c := int32(2 * nw.n)
	base := 4 * m
	nw.setCap(base+4*src.U, c)
	nw.setCap(base+4*src.V, c)
	nw.setCap(base+4*dst.U+2, c)
	nw.setCap(base+4*dst.V+2, c)
}

// RestrictedEdgeConnectivity returns λ′(G) across `workers` goroutines
// under ctx, or -1 when λ′ is undefined for g. The pairwise probe sweep
// runs on one arena (rearm + terminal re-arm per probe) and early-exits
// every flow at the running minimum.
func RestrictedEdgeConnectivity(ctx context.Context, g *graph.Graph, workers int) (int, error) {
	if minDeg, _ := g.MinDegree(); g.Order() == 0 || minDeg == 0 {
		return -1, ctx.Err()
	}
	edges := g.Edges()
	pairs := restrictedPairs(edges)
	if len(pairs) == 0 {
		return -1, ctx.Err()
	}
	n, m := g.Order(), len(edges)
	return sweepMin(ctx, "flow.restricted.worker", len(pairs), workers, inf, n+2,
		func(nw *network) { nw.buildRestricted(g) },
		func(nw *network, i, limit int) int {
			p := pairs[i]
			nw.armEdgePair(m, edges[p.i], edges[p.j])
			return nw.maxflow(n, n+1, limit)
		})
}
