package graph

// DominatingSet returns a deterministic greedy dominating set of g: every
// node is either in the set or adjacent to a member. The greedy scan admits
// node v exactly when no earlier member covers it, so the result is
// reproducible run to run and has at most n/(δ+1)·(1+o(1)) members on
// near-regular graphs — the probe-count reduction the Matula shared-λ pass
// in internal/flow is built on (any dominating set intersects both sides of
// a sub-δ minimum edge cut, so λ(G) = min(δ, min over in-set pairs)).
//
// Isolated nodes dominate only themselves and are always members. The empty
// graph yields an empty set. The scan runs on pooled scratch (a negative
// distance marks an uncovered node, the queue collects members), so the
// exact-size result is the only allocation.
func (g *Graph) DominatingSet() []int {
	n := g.Order()
	s := getScratch(n)
	covered := s.dist
	members := s.queue
	for v := 0; v < n; v++ {
		if covered[v] >= 0 {
			continue
		}
		members = append(members, int32(v))
		covered[v] = 0
		for _, w := range g.row(v) {
			covered[w] = 0
		}
	}
	set := make([]int, len(members))
	for i, v := range members {
		set[i] = int(v)
	}
	s.queue = members
	putScratch(s)
	return set
}
