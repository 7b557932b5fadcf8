package graph

import (
	"sync"

	"lhg/internal/obs"
)

// Pool telemetry: gets counts every scratch checkout, misses counts the
// ones the pool had to allocate for. hits = gets - misses; a healthy
// steady state is all hits.
var (
	mScratchGets   = obs.NewCounter("graph.scratch.gets")
	mScratchMisses = obs.NewCounter("graph.scratch.misses")
)

// scratch is the reusable per-traversal working set: a distance array and a
// BFS queue. Single-source traversals Get one from the pool, run, and Put
// it back, so steady-state BFS probes (Connected, ConnectedIgnoring,
// Eccentricity and the flow-layer reachability sweeps) allocate nothing.
// Buffers only ever grow; a scratch recycled from a larger graph serves a
// smaller one without reallocation. The all-sources distance sweep
// (DistanceStatsCtx, Diameter, AvgPathLength) runs on its own pooled lanes
// (lanes.go) and checks out no scratch, so it no longer counts in
// graph.scratch.gets: the miss ratio moves because its base shrank, not
// because the pool serves worse.
type scratch struct {
	dist  []int32
	queue []int32
}

var scratchPool = sync.Pool{New: func() any {
	mScratchMisses.Inc()
	return new(scratch)
}}

// getScratch returns a scratch with dist sized (and reset to -1) for n
// nodes and an empty queue of capacity >= n.
func getScratch(n int) *scratch {
	mScratchGets.Inc()
	s := scratchPool.Get().(*scratch)
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.queue = make([]int32, 0, n)
	}
	s.dist = s.dist[:n]
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.queue = s.queue[:0]
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// bfsInto runs a BFS from src over g writing hop distances into s.dist
// (which must be pre-set to -1) and returns the number of nodes reached,
// including src. Out-of-range sources reach nothing.
func (g *Graph) bfsInto(src int, s *scratch) int {
	if src < 0 || src >= g.Order() {
		return 0
	}
	s.dist[src] = 0
	s.queue = append(s.queue[:0], int32(src))
	reached := 1
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		du := s.dist[u]
		for _, v := range g.row(int(u)) {
			if s.dist[v] < 0 {
				s.dist[v] = du + 1
				s.queue = append(s.queue, v)
				reached++
			}
		}
	}
	return reached
}
