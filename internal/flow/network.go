// Package flow implements unit-capacity maximum flow (Dinic's algorithm)
// and the connectivity queries built on it: s-t edge/vertex min cuts,
// global edge connectivity (Matula), global vertex connectivity
// (Esfahanian–Hakimi), restricted edge connectivity, the P3 edge-removal
// batch, and Menger-style extraction of vertex-disjoint paths. Each global
// question is one ctx-first function taking a worker budget; one sweep
// driver (sweep.go) runs its probe set serially or across workers.
//
// These are the verification workhorses for the LHG properties P1 and P2:
// a graph is k-node (k-link) connected iff its vertex (edge) connectivity
// is at least k, by Menger's theorem.
//
// Networks are recycled through a sync.Pool and rebuilt in place from the
// frozen CSR graph view, so the steady state of a connectivity sweep —
// thousands of small max-flow probes — allocates nothing.
//
// The residual network itself is a flat arena: arc targets and capacities
// live in paired flat arrays (arc e and its reverse e^1 adjacent, the
// standard Dinic layout), the per-node adjacency is a CSR index over arc
// ids built by one counting pass (finish), and the BFS level array doubles
// as the visited set (-1 = unreached) so the augmenting DFS tests a single
// int32 per arc. There are no per-node structs and no per-node slices:
// BFS and DFS walk cache-dense int32 arrays. Probe sweeps that reuse one
// topology re-arm capacities from a pristine snapshot (rearm) instead of
// rebuilding the CSR index per probe, and the level BFS stops expanding at
// t's distance — on expander-like probe targets the untouched final
// frontier is most of the graph.
package flow

import (
	"context"
	"sync"

	"lhg/internal/graph"
	"lhg/internal/obs"
)

// Flow-layer telemetry. Probes and augmenting paths are counted per
// maxflow call (one add each, outside the inner loops); pool gets/misses
// expose the recycling behaviour the zero-alloc steady state depends on.
// The arena counters split topology construction (builds: addArc loops +
// the CSR finish pass) from capacity restores (rearms: one copy from the
// pristine snapshot), which is the ratio the build-once probe sweeps exist
// to improve.
var (
	mMaxflowProbes = obs.NewCounter("flow.maxflow.probes")
	mAugPaths      = obs.NewCounter("flow.maxflow.augmenting_paths")
	mNetPoolGets   = obs.NewCounter("flow.pool.gets")
	mNetPoolMisses = obs.NewCounter("flow.pool.misses")
	mArenaBuilds   = obs.NewCounter("flow.arena.builds")
	mArenaRearms   = obs.NewCounter("flow.arena.rearms")
)

// network is a directed flow network stored as a flat arc arena: the arc
// with index e and its reverse e^1 are stored adjacently, and a CSR index
// (arcOff/arcIdx, built once per topology by finish) lists the arc ids
// leaving each node.
type network struct {
	n   int
	to  []int32 // arc targets; e and e^1 paired
	cap []int32 // residual capacities, parallel to to

	// CSR arc index: the arcs leaving v are arcIdx[arcOff[v]:arcOff[v+1]].
	// Built by finish after the addArc loop; invalid until then.
	arcOff []int32 // len n+1
	arcIdx []int32 // len == len(to)

	// cap0 is the pristine capacity snapshot taken by finish, so sweeps
	// over one topology restore capacities with a single copy (rearm)
	// instead of rebuilding the arena per probe.
	cap0 []int32

	// done, when non-nil, is the cancellation signal of the context the
	// probe runs under. maxflow polls it between augmenting-path
	// iterations — never mid-path — so a canceled probe stops within one
	// augmentation and leaves the network in a consistent, reusable state.
	done <-chan struct{}

	// scratch buffers reused across maxflow runs
	level []int32 // BFS levels; -1 = not in the current level graph
	iter  []int32 // per-node cursor into its CSR arc row
	queue []int32 // BFS queue
	path  []int32 // arc stack of the iterative DFS
}

// watch arms the network's cancellation signal from ctx. A background (or
// nil-Done) context disarms it; the signal is cleared again by reset, so a
// pooled network never carries a stale context across probes.
func (nw *network) watch(ctx context.Context) {
	if ctx == nil {
		nw.done = nil
		return
	}
	nw.done = ctx.Done()
}

// canceled is the poll point of the cancellation signal: one non-blocking
// channel receive when armed, a nil check when not.
func (nw *network) canceled() bool {
	if nw.done == nil {
		return false
	}
	select {
	case <-nw.done:
		return true
	default:
		return false
	}
}

// netPool recycles networks across probes. A recycled network keeps the
// capacity of every buffer it ever grew to, so rebuilding one for a graph
// of similar size costs appends into retained storage — zero allocations.
var netPool = sync.Pool{New: func() any {
	mNetPoolMisses.Inc()
	return new(network)
}}

func getNetwork(n int) *network {
	mNetPoolGets.Inc()
	nw := netPool.Get().(*network)
	nw.reset(n)
	return nw
}

// putNetwork returns nw to the pool; nil (a network never drawn) is a
// no-op.
func putNetwork(nw *network) {
	if nw == nil {
		return
	}
	nw.done = nil // never pool an armed cancellation signal
	netPool.Put(nw)
}

// grow32 returns s resized to length n, reusing its storage when possible.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// reset prepares the network for n nodes, reusing all prior storage. The
// cancellation signal is left alone: sweeps rebuild the network per probe
// under one armed context (putNetwork disarms it before pooling).
func (nw *network) reset(n int) {
	nw.n = n
	nw.to = nw.to[:0]
	nw.cap = nw.cap[:0]
	nw.arcOff = grow32(nw.arcOff, n+1)
	for i := range nw.arcOff {
		nw.arcOff[i] = 0
	}
	nw.level = grow32(nw.level, n)
	nw.iter = grow32(nw.iter, n)
	if nw.queue == nil {
		nw.queue = make([]int32, 0, n)
	}
}

// addArc inserts a directed arc u->v with capacity c and its zero-capacity
// reverse. It returns the forward arc index. The CSR index is not usable
// until finish runs.
func (nw *network) addArc(u, v, c int) int {
	e := len(nw.to)
	nw.to = append(nw.to, int32(v), int32(u))
	nw.cap = append(nw.cap, int32(c), 0)
	return e
}

// finish builds the CSR arc index over everything addArc appended (one
// counting pass — the source of arc e is to[e^1]) and snapshots the
// pristine capacities for rearm. It must run once after the addArc loop
// and before the first maxflow.
func (nw *network) finish() {
	mArenaBuilds.Inc()
	m := len(nw.to)
	off := nw.arcOff // zeroed by reset
	for e := 0; e < m; e += 2 {
		off[nw.to[e+1]+1]++ // source of forward arc e
		off[nw.to[e]+1]++   // source of reverse arc e+1
	}
	for v := 0; v < nw.n; v++ {
		off[v+1] += off[v]
	}
	nw.arcIdx = grow32(nw.arcIdx, m)
	fill := nw.iter // clobbered: maxflow re-zeroes iter per phase
	for i := range fill {
		fill[i] = 0
	}
	for e := 0; e < m; e++ {
		src := nw.to[e^1]
		nw.arcIdx[off[src]+fill[src]] = int32(e)
		fill[src]++
	}
	nw.cap0 = append(nw.cap0[:0], nw.cap...)
}

// copyTopology makes nw a copy of src's finished topology with pristine
// capacities: the per-worker arena of a sweep, at the cost of a few flat
// copies instead of the addArc loop and the CSR pass. It reads only what
// finish froze (targets, CSR index, pristine capacities), so src may be
// probing concurrently. nw must come from getNetwork(src.n).
func (nw *network) copyTopology(src *network) {
	nw.to = append(nw.to[:0], src.to...)
	nw.cap0 = append(nw.cap0[:0], src.cap0...)
	nw.cap = append(nw.cap[:0], src.cap0...)
	copy(nw.arcOff, src.arcOff)
	nw.arcIdx = append(nw.arcIdx[:0], src.arcIdx...)
}

// rearm restores every capacity to the pristine post-finish snapshot, so a
// sweep over one topology pays one copy per probe instead of a rebuild.
func (nw *network) rearm() {
	mArenaRearms.Inc()
	copy(nw.cap, nw.cap0)
}

// arcs returns the CSR row of arc ids leaving v.
func (nw *network) arcs(v int32) []int32 {
	return nw.arcIdx[nw.arcOff[v]:nw.arcOff[v+1]]
}

// noEdge is the sentinel "exclude nothing" mask.
var noEdge = graph.Edge{U: -1, V: -1}

// buildEdge assembles the directed network for edge-connectivity queries:
// every undirected edge becomes a pair of opposing unit-capacity arcs. The
// edge `skip` (if present in g) is masked out, which probes G−e without
// materializing the smaller graph.
func (nw *network) buildEdge(g *graph.Graph, skip graph.Edge) {
	nw.reset(g.Order())
	g.EachEdge(func(u, v int) {
		if u == skip.U && v == skip.V {
			return
		}
		nw.addArc(u, v, 1)
		nw.addArc(v, u, 1)
	})
	nw.finish()
}

// buildVertex assembles the split-node network for vertex-connectivity
// queries. Node v becomes vIn=2v and vOut=2v+1 joined by a unit arc, so a
// unit of flow "uses up" the node. The terminals s and t get unbounded
// internal capacity. The edge `skip` is masked out as in buildEdge.
//
// edgeCap controls the capacity of the arcs derived from graph edges:
//   - cut queries pass an effectively infinite capacity so that minimum
//     cuts consist of node arcs only (requires s,t non-adjacent);
//   - path extraction passes 1 so that a physical edge carries at most one
//     path (vertex-disjoint paths are automatically edge-disjoint, so this
//     does not change the maximum).
func (nw *network) buildVertex(g *graph.Graph, s, t, edgeCap int, skip graph.Edge) {
	nw.buildVertexBase(g, edgeCap, skip)
	nw.armVertexPair(s, t)
}

// buildVertexBase assembles the split-node network with every internal arc
// at capacity 1 (no terminals boosted). Sweeps build it once per graph and
// select the probe pair with armVertexPair; the node-internal arc of v is
// arc 2v by construction.
func (nw *network) buildVertexBase(g *graph.Graph, edgeCap int, skip graph.Edge) {
	n := g.Order()
	nw.reset(2 * n)
	for v := 0; v < n; v++ {
		nw.addArc(2*v, 2*v+1, 1)
	}
	g.EachEdge(func(u, v int) {
		if u == skip.U && v == skip.V {
			return
		}
		nw.addArc(2*u+1, 2*v, edgeCap)
		nw.addArc(2*v+1, 2*u, edgeCap)
	})
	nw.finish()
}

// armVertexPair rearms the pristine capacities and lifts the node-internal
// capacity of the terminals s and t to "unbounded" (n+1), preparing one
// vertex-cut probe on a buildVertexBase arena.
func (nw *network) armVertexPair(s, t int) {
	nw.rearm()
	c := int32(nw.n/2 + 1)
	nw.cap[2*s] = c
	nw.cap[2*t] = c
}

// Edge masking by canonical index. EachEdge enumerates edges in the same
// (u,v) order as graph.Edges, and every edge contributes two addArc calls
// (four arc slots), so on an arena built without a skip the i-th canonical
// edge owns a fixed arc window. Zeroing those capacities after rearm probes
// G−e without rebuilding — the core of the P3 minimality sweep, which runs
// two masked flows per edge.

// maskEdgeInEdgeNet removes the i-th canonical edge from a buildEdge arena
// (built with skip == noEdge). Call after rearm.
func (nw *network) maskEdgeInEdgeNet(i int) {
	base := 4 * i
	nw.cap[base] = 0
	nw.cap[base+1] = 0
	nw.cap[base+2] = 0
	nw.cap[base+3] = 0
}

// maskEdgeInVertexNet removes the i-th canonical edge from a
// buildVertexBase arena (skip == noEdge): the first 2n arc slots are the
// node-internal pairs, edge arcs follow. Call after armVertexPair.
func (nw *network) maskEdgeInVertexNet(i int) {
	base := nw.n + 4*i // nw.n == 2·(graph order): the internal-arc slots
	nw.cap[base] = 0
	nw.cap[base+1] = 0
	nw.cap[base+2] = 0
	nw.cap[base+3] = 0
}

// bfs builds the level graph; it reports whether t is reachable in the
// residual network. The level array doubles as the visited set (-1 =
// unreached), which removes the per-arc bitset test from the hot loop,
// and expansion stops once the frontier reaches t's level: no shortest
// augmenting path leaves a node at distance >= level(t), and on the
// expander-like instances the sweeps probe, the final BFS frontier holds
// most of the graph — truncating it is most of a phase's cost.
func (nw *network) bfs(s, t int) bool {
	lev := nw.level
	for i := range lev {
		lev[i] = -1
	}
	nw.queue = nw.queue[:0]
	nw.queue = append(nw.queue, int32(s))
	lev[s] = 0
	tLevel := int32(-1)
	for qi := 0; qi < len(nw.queue); qi++ {
		u := nw.queue[qi]
		if tLevel >= 0 && lev[u] >= tLevel {
			break
		}
		lv := lev[u] + 1
		for _, e := range nw.arcs(u) {
			v := nw.to[e]
			if nw.cap[e] > 0 && lev[v] < 0 {
				lev[v] = lv
				nw.queue = append(nw.queue, v)
				if v == int32(t) {
					tLevel = lv
				}
			}
		}
	}
	return lev[t] >= 0
}

// augment finds one augmenting path from s to t in the current level
// graph, pushes its bottleneck and returns the amount (0 when the blocking
// flow is complete). It is iterative — the DFS stack is the arc path — so
// probe depth is bounded by memory, not goroutine stack growth, which the
// n=10^6 arenas rely on. Dead ends are pruned by dropping the node's level
// to -2, the classic level-graph retreat.
func (nw *network) augment(s, t int32) int32 {
	nw.path = nw.path[:0]
	u := s
	for {
		if u == t {
			pushed := nw.cap[nw.path[0]]
			for _, e := range nw.path[1:] {
				if nw.cap[e] < pushed {
					pushed = nw.cap[e]
				}
			}
			for _, e := range nw.path {
				nw.cap[e] -= pushed
				nw.cap[e^1] += pushed
			}
			return pushed
		}
		advanced := false
		row := nw.arcs(u)
		for ; int(nw.iter[u]) < len(row); nw.iter[u]++ {
			e := row[nw.iter[u]]
			v := nw.to[e]
			if nw.cap[e] > 0 && nw.level[v] == nw.level[u]+1 {
				nw.path = append(nw.path, e)
				u = v
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		if u == s {
			return 0
		}
		// Retreat: u is a dead end in this phase; remove it from the level
		// graph and step back past the arc that led here.
		nw.level[u] = -2
		e := nw.path[len(nw.path)-1]
		nw.path = nw.path[:len(nw.path)-1]
		u = nw.to[e^1]
		nw.iter[u]++
	}
}

const inf = int(^uint(0) >> 1)

// maxflow computes the maximum s-t flow, optionally stopping early once the
// flow reaches `limit` (pass a negative limit for no bound). Early stopping
// makes global-connectivity sweeps cheap: once the running minimum is m, any
// pair with flow >= m cannot improve it.
func (nw *network) maxflow(s, t, limit int) int {
	f, paths := nw.maxflowCounted(s, t, limit)
	mMaxflowProbes.Inc()
	mAugPaths.Add(paths)
	return f
}

// maxflowCounted is maxflow returning the number of augmenting paths found
// alongside the flow value. The path count is tallied in a local so the
// hot loop stays free of atomics; the caller publishes it once.
//
// When the network is armed with a context (watch), cancellation is polled
// between augmenting-path iterations and before each level-graph rebuild —
// never inside a path search — so a canceled probe returns promptly with a
// partial (lower-bound) flow value. Callers that armed a context must check
// it after the probe and discard the value; the network itself stays
// consistent and reusable.
func (nw *network) maxflowCounted(s, t, limit int) (flow int, paths int64) {
	if s == t {
		return inf, 0
	}
	for !nw.canceled() && nw.bfs(s, t) {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for {
			f := nw.augment(int32(s), int32(t))
			if f == 0 {
				break
			}
			paths++
			flow += int(f)
			if limit >= 0 && flow >= limit {
				return flow, paths
			}
			if nw.canceled() {
				return flow, paths
			}
		}
	}
	return flow, paths
}

// residualReach marks every node reachable from s in the residual network.
func (nw *network) residualReach(s int) []bool {
	seen := make([]bool, nw.n)
	seen[s] = true
	stack := []int32{int32(s)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range nw.arcs(u) {
			if v := nw.to[e]; nw.cap[e] > 0 && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}
