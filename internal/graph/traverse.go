package graph

import "context"

// BFSFrom runs a breadth-first search from src and returns the distance (in
// hops) to every node; unreachable nodes get -1. If src is out of range the
// result is all -1. The returned slice is freshly allocated; internal
// callers that need allocation-free probes use the pooled scratch instead.
func (g *Graph) BFSFrom(src int) []int {
	n := g.Order()
	dist := make([]int, n)
	s := getScratch(n)
	g.bfsInto(src, s)
	for i, d := range s.dist {
		dist[i] = int(d)
	}
	putScratch(s)
	return dist
}

// Connected reports whether g is connected. Graphs with fewer than two
// nodes are connected by convention. It allocates nothing in steady state.
func (g *Graph) Connected() bool {
	n := g.Order()
	if n <= 1 {
		return true
	}
	s := getScratch(n)
	reached := g.bfsInto(0, s)
	putScratch(s)
	return reached == n
}

// ConnectedIgnoring reports whether the subgraph induced by removing the
// nodes in `removed` (a boolean mask indexed by node) is connected. A
// subgraph with fewer than two surviving nodes is connected by convention.
// It allocates nothing in steady state.
func (g *Graph) ConnectedIgnoring(removed []bool) bool {
	n := g.Order()
	start := -1
	alive := 0
	for v := 0; v < n; v++ {
		if v < len(removed) && removed[v] {
			continue
		}
		alive++
		if start < 0 {
			start = v
		}
	}
	if alive <= 1 {
		return true
	}
	s := getScratch(n)
	// Mark removed nodes visited up front so the BFS never enters them.
	for v := 0; v < n && v < len(removed); v++ {
		if removed[v] {
			s.dist[v] = 0
		}
	}
	s.dist[start] = 0
	s.queue = append(s.queue[:0], int32(start))
	count := 1
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		for _, v := range g.row(int(u)) {
			if s.dist[v] < 0 {
				s.dist[v] = 0
				count++
				s.queue = append(s.queue, v)
			}
		}
	}
	putScratch(s)
	return count == alive
}

// Components returns the connected components of g, each as a sorted node
// slice, ordered by their smallest member.
func (g *Graph) Components() [][]int {
	n := g.Order()
	s := getScratch(n)
	defer putScratch(s)
	var comps [][]int
	for root := 0; root < n; root++ {
		if s.dist[root] >= 0 {
			continue
		}
		s.dist[root] = 0
		s.queue = append(s.queue[:0], int32(root))
		var comp []int
		for qi := 0; qi < len(s.queue); qi++ {
			u := s.queue[qi]
			comp = append(comp, int(u))
			for _, v := range g.row(int(u)) {
				if s.dist[v] < 0 {
					s.dist[v] = 0
					s.queue = append(s.queue, v)
				}
			}
		}
		comps = append(comps, sortedCopy(comp))
	}
	return comps
}

// Eccentricity returns the greatest BFS distance from v to any reachable
// node, and whether the whole graph is reachable from v.
func (g *Graph) Eccentricity(v int) (ecc int, wholeGraph bool) {
	n := g.Order()
	s := getScratch(n)
	reached := g.bfsInto(v, s)
	for _, d := range s.dist {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	putScratch(s)
	return ecc, reached == n
}

// Diameter returns the longest shortest path in g. It returns -1 when g is
// disconnected or has no nodes.
func (g *Graph) Diameter() int {
	diam, _, _ := g.DistanceStatsCtx(context.Background(), 1)
	return diam
}

// AvgPathLength returns the mean shortest-path length over all ordered node
// pairs, or -1 when g is disconnected or has fewer than two nodes.
func (g *Graph) AvgPathLength() float64 {
	_, avg, _ := g.DistanceStatsCtx(context.Background(), 1)
	return avg
}

// DistanceStatsCtx runs one all-sources BFS sweep (see lanes.go) across
// workers goroutines and returns the diameter and average path length
// together — the P4 inputs — so verification pays for the sweep once
// instead of twice. Both are -1 when g is disconnected; the diameter alone
// is -1 on the empty graph. ctx is polled every 256 nodes of each BFS
// level, so cancellation lands within a fraction of one level of the
// signal; a canceled sweep returns ctx.Err() and no values.
func (g *Graph) DistanceStatsCtx(ctx context.Context, workers int) (diam int, avg float64, err error) {
	n := g.Order()
	if n == 0 {
		return -1, -1, ctx.Err()
	}
	diam, total, connected := g.sweepAllSources(ctx.Done(), workers)
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if !connected {
		return -1, -1, nil
	}
	if n < 2 {
		return diam, -1, nil
	}
	return diam, float64(total) / float64(int64(n)*int64(n-1)), nil
}

// signaled polls an optional done channel without blocking.
func signaled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
