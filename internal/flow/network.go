// Package flow implements unit-capacity maximum flow (bidirectional
// augmenting-path search) and the connectivity queries built on it: s-t
// edge/vertex min cuts, global edge connectivity (Matula), global vertex
// connectivity (Esfahanian–Hakimi with an independent-set cut of its
// probe set), restricted edge connectivity, the P3 edge-removal batch,
// and Menger-style extraction of vertex-disjoint paths. Each global
// question is one ctx-first function taking a worker budget; one sweep
// driver (sweep.go) runs its probe set serially or across the workers of
// graph.FanOut, the repo's one CPU worker pool.
//
// These are the verification workhorses for the LHG properties P1 and P2:
// a graph is k-node (k-link) connected iff its vertex (edge) connectivity
// is at least k, by Menger's theorem. VertexConnectivity and
// EdgeConnectivity are the only κ/λ path: check.Verify and check.Screen
// both call them on the input graph itself, at every density and scale.
//
// Networks are recycled through a small free list and rebuilt in place
// from the frozen CSR graph view, so the steady state of a connectivity
// sweep — thousands of small max-flow probes — allocates nothing.
//
// The residual network itself is a flat arena: arc targets and capacities
// live in paired flat arrays (arc e and its reverse e^1 adjacent), the
// per-node adjacency is a CSR index over arc ids built by one counting
// pass (finish), and there are no per-node structs and no per-node
// slices: searches walk cache-dense int32 arrays. Probe sweeps that reuse
// one topology re-arm capacities (rearm) by undoing the arcs the last
// probe wrote, instead of rebuilding the CSR index per probe. Each
// augmenting path comes from one search that grows breadth-first balls
// from s and t, always expanding the smaller frontier, and stops where
// they meet. The κ and λ sweeps share one source across their probes, so
// every probed target joins the source side of the later probes on its
// network (addSource): on K-TREE(4096,4) a κ search then visits a mean of
// 47–92 of the 8192 split nodes. Visit marks are epoch stamps, so a
// search clears nothing.
package flow

import (
	"context"
	"math"
	"sync"

	"lhg/internal/graph"
	"lhg/internal/obs"
)

// Flow-layer telemetry. Probes and augmenting paths are counted per
// maxflow call (one add each, outside the inner loops); pool gets/misses
// expose the recycling behaviour the zero-alloc steady state depends on.
// The arena counters split topology construction (builds: addArc loops +
// the CSR finish pass) from capacity restores (rearms: an undo of the last
// probe's writes), which is the ratio the build-once probe sweeps exist to
// improve.
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
	// over one topology restore capacities (rearm) instead of rebuilding
	// the arena per probe.
	cap0 []int32

	// undo lists the arc pairs (arc e is in pair e>>1) whose capacities
	// changed since the last rearm, which restores only those. Once it
	// holds undoMax entries it stops growing and the next rearm copies all
	// of cap0 instead: past that size one sequential copy is the cheaper
	// restore.
	undo    []int32
	undoMax int

	// done, when non-nil, is the cancellation signal of the context the
	// probe runs under. maxflow polls it between augmenting-path
	// iterations — never mid-path — so a canceled probe stops within one
	// augmentation and leaves the network in a consistent, reusable state.
	done <-chan struct{}

	// Search scratch reused across maxflow runs. stamp holds per-node
	// visit stamps (see nextEpoch), parent the tree arc that reached each
	// node in the current search; neither is cleared between searches.
	stamp  []int32
	parent []int32
	epoch  int32   // stamp of the latest search's t side
	queue  []int32 // BFS queues of both sides (see findAndPush)

	// srcs lists the extra sources of every search on this network (see
	// addSource); their stamp is srcMark.
	srcs []int32
}

// srcMark is the stamp of an extra source. Search epochs are positive, so
// it never collides with a visit stamp and outlives every search.
const srcMark = -1

// watch arms the network's cancellation signal from ctx. A background (or
// nil-Done) context disarms it; the signal is cleared again by reset, so a
// recycled network never carries a stale context across probes.
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

// The network free list recycles arenas across probes and sweeps. A
// recycled network keeps the capacity of every buffer it ever grew to, so
// rebuilding one for a graph of similar size costs appends into retained
// storage — zero allocations. The list is a small mutex-guarded stack, not
// a pool from package sync: that strands ~1 MB arenas in per-P slots and
// drops them at every GC, and each loss costs a rebuild that regrows every
// array. A serial sweep holds at most two networks at once (the P3 sweep's
// edge and split-node arenas), so the list keeps two; a parallel sweep's
// extra worker copies are left to the collector.
const netFreeMax = 2

var netFree struct {
	sync.Mutex
	nets []*network
}

func getNetwork(n int) *network {
	mNetPoolGets.Inc()
	var nw *network
	netFree.Lock()
	if k := len(netFree.nets); k > 0 {
		nw = netFree.nets[k-1]
		netFree.nets[k-1] = nil
		netFree.nets = netFree.nets[:k-1]
	}
	netFree.Unlock()
	if nw == nil {
		mNetPoolMisses.Inc()
		nw = new(network)
	}
	nw.reset(n)
	return nw
}

// putNetwork returns nw to the free list, or drops it when the list is
// full; nil (a network never drawn) is a no-op.
func putNetwork(nw *network) {
	if nw == nil {
		return
	}
	nw.done = nil // never keep an armed cancellation signal
	netFree.Lock()
	if len(netFree.nets) < netFreeMax {
		netFree.nets = append(netFree.nets, nw)
	}
	netFree.Unlock()
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
// under one armed context (putNetwork disarms it before recycling).
func (nw *network) reset(n int) {
	nw.clearSources()
	nw.n = n
	nw.to = nw.to[:0]
	nw.cap = nw.cap[:0]
	nw.arcOff = grow32(nw.arcOff, n+1)
	for i := range nw.arcOff {
		nw.arcOff[i] = 0
	}
	nw.stamp = grow32(nw.stamp, n)
	nw.parent = grow32(nw.parent, n)
	nw.queue = grow32(nw.queue, n)
}

// reserve gives the arc arrays room for arcs slots before an addArc loop,
// so a recycled network that grows for a larger graph allocates each array
// once at its final size instead of doubling through append.
func (nw *network) reserve(arcs int) {
	if cap(nw.to) < arcs {
		nw.to = make([]int32, 0, arcs)
		nw.cap = make([]int32, 0, arcs)
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
// pristine capacities for rearm, with an empty undo log. It must run once
// after the addArc loop and before the first maxflow.
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
	fill := nw.parent // clobbered: searches overwrite parent before reading it
	for i := range fill {
		fill[i] = 0
	}
	for e := 0; e < m; e++ {
		src := nw.to[e^1]
		nw.arcIdx[off[src]+fill[src]] = int32(e)
		fill[src]++
	}
	nw.cap0 = append(nw.cap0[:0], nw.cap...)
	nw.clearUndo(m)
}

// clearUndo empties the undo log of an arena with m arc slots and sizes
// it: one entry per sixteen slots, past which a full copy restores faster.
func (nw *network) clearUndo(m int) {
	nw.undoMax = m/16 + 16
	nw.undo = grow32(nw.undo, nw.undoMax)[:0]
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
	nw.clearUndo(len(nw.to))
}

// rearm restores the pristine post-finish capacities, so a sweep over one
// topology pays per probe for the arcs the last probe wrote, not for a
// rebuild or a full copy. Every capacity write after finish goes through
// the undo log (touch): augmenting paths, terminal boosts and edge masks.
func (nw *network) rearm() {
	mArenaRearms.Inc()
	if len(nw.undo) == nw.undoMax {
		copy(nw.cap, nw.cap0)
	} else {
		for _, p := range nw.undo {
			nw.cap[2*p], nw.cap[2*p+1] = nw.cap0[2*p], nw.cap0[2*p+1]
		}
	}
	nw.undo = nw.undo[:0]
}

// touch records that the capacity of arc e or its pair changed; a full
// log records nothing more (see undo).
func (nw *network) touch(e int32) {
	if len(nw.undo) < nw.undoMax {
		nw.undo = append(nw.undo, e>>1)
	}
}

// setCap sets the capacity of arc e, logged for the next rearm.
func (nw *network) setCap(e int, c int32) {
	nw.cap[e] = c
	nw.touch(int32(e))
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
	nw.reserve(4 * g.Size())
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
	nw.reserve(2*n + 4*g.Size())
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
	nw.setCap(2*s, c)
	nw.setCap(2*t, c)
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
	nw.maskArcs(4 * i)
}

// maskEdgeInVertexNet removes the i-th canonical edge from a
// buildVertexBase arena (skip == noEdge): the first 2n arc slots are the
// node-internal pairs, edge arcs follow. Call after armVertexPair.
func (nw *network) maskEdgeInVertexNet(i int) {
	nw.maskArcs(nw.n + 4*i) // nw.n == 2·(graph order): the internal-arc slots
}

// maskArcs zeroes the four arc slots of one edge from base on: the two
// opposing arcs and their reverses.
func (nw *network) maskArcs(base int) {
	clear(nw.cap[base : base+4])
	nw.touch(int32(base))
	nw.touch(int32(base + 2))
}

// nextEpoch returns the two visit stamps of a fresh search: odd for nodes
// reached from s, the following even value for nodes reached from t.
// Stamps only grow, so whatever an earlier search (or an earlier graph on
// this recycled network) left in stamp reads as unvisited, and a search
// clears nothing. Before int32 wraps around, the whole backing array is
// zeroed once (a later reset may re-expose slots beyond the current
// length) and the extra sources are marked again.
func (nw *network) nextEpoch() (fromS, fromT int32) {
	if nw.epoch > math.MaxInt32-2 {
		clear(nw.stamp[:cap(nw.stamp)])
		for _, v := range nw.srcs {
			nw.stamp[v] = srcMark
		}
		nw.epoch = 0
	}
	nw.epoch += 2
	return nw.epoch - 1, nw.epoch
}

// addSource makes v an extra source of every later search on this
// network, until clearSources or the next reset: a search treats v as
// already reached from s, so an augmenting path may start at v. A sweep
// whose probes share one source adds each probed target this way, and a
// later probe then ends at the nearest earlier target instead of crossing
// the graph to s (see "Source-set sweeps" in DESIGN.md for when that keeps
// the probe's value). v must differ from the s and t of later searches.
func (nw *network) addSource(v int) {
	nw.stamp[v] = srcMark
	nw.srcs = append(nw.srcs, int32(v))
}

// clearSources drops every extra source: later searches start at s alone.
func (nw *network) clearSources() {
	for _, v := range nw.srcs {
		nw.stamp[v] = 0
	}
	nw.srcs = nw.srcs[:0]
}

// findAndPush finds one path from s, or from an extra source, to t in the
// residual network, pushes its bottleneck and returns the amount (0 when t
// is unreachable). The search grows breadth-first balls from s and t at
// once, always expanding one whole level of the smaller frontier, and
// stops at the first arc that joins the t ball to the s ball or to an
// extra source. The s ball never enters an extra source; once it is
// closed, the t ball alone goes on while extra sources remain. Balls from
// s follow residual arcs forward, balls from t follow them backward;
// parent[v] is the tree arc that reached v (into v on the s side, out of v
// on the t side). Each ball is a tree and the two never share a node, so
// the joined path is simple. In a source-set sweep the t ball of a later
// probe usually meets an earlier target within a few levels, so each
// search stays local to t.
func (nw *network) findAndPush(s, t int32) int32 {
	fromS, fromT := nw.nextEpoch()
	stamp, parent, q := nw.stamp, nw.parent, nw.queue
	stamp[s], stamp[t] = fromS, fromT
	extra := len(nw.srcs) > 0
	// The balls never share a node, so one n-slot queue holds both: the s
	// side fills q[0:se] upward and expands q[hs:se]; the t side fills
	// q[te:] downward and expands q[te:ht+1] from the top.
	q[0], q[len(q)-1] = s, t
	hs, se := 0, 1
	ht, te := len(q)-1, len(q)-1
	for ht >= te {
		if hs < se && se-hs <= ht-te+1 {
			for end := se; hs < end; hs++ {
				u := q[hs]
				for _, e := range nw.arcs(u) {
					if nw.cap[e] <= 0 {
						continue
					}
					switch v := nw.to[e]; stamp[v] {
					case fromS, srcMark:
					case fromT:
						return nw.push(s, t, u, e, v)
					default:
						stamp[v], parent[v] = fromS, e
						q[se] = v
						se++
					}
				}
			}
		} else if hs == se && !extra {
			return 0 // the s ball is closed and t is outside it
		} else {
			for end := te; ht >= end; ht-- {
				u := q[ht]
				for _, e := range nw.arcs(u) {
					r := e ^ 1 // the arc to[e] -> u
					if nw.cap[r] <= 0 {
						continue
					}
					switch v := nw.to[e]; stamp[v] {
					case fromT:
					case fromS:
						return nw.push(s, t, v, r, u)
					case srcMark:
						return nw.push(v, t, v, r, u) // the path starts at v
					default:
						stamp[v], parent[v] = fromT, r
						te--
						q[te] = v
					}
				}
			}
		}
	}
	return 0
}

// push augments along s ~> a -e-> b ~> t, where a hangs in the s-side
// tree of the current search (or is s itself, an extra source then being
// passed as s) and b in the t-side tree, and returns the bottleneck it
// pushed. Every arc it changes goes into the undo log.
func (nw *network) push(s, t, a, e, b int32) int32 {
	f := nw.cap[e]
	for v := a; v != s; v = nw.to[nw.parent[v]^1] {
		f = min(f, nw.cap[nw.parent[v]])
	}
	for v := b; v != t; v = nw.to[nw.parent[v]] {
		f = min(f, nw.cap[nw.parent[v]])
	}
	nw.augment(e, f)
	for v := a; v != s; v = nw.to[nw.parent[v]^1] {
		nw.augment(nw.parent[v], f)
	}
	for v := b; v != t; v = nw.to[nw.parent[v]] {
		nw.augment(nw.parent[v], f)
	}
	return f
}

// augment moves f units of residual capacity from arc e to its reverse.
func (nw *network) augment(e, f int32) {
	nw.cap[e] -= f
	nw.cap[e^1] += f
	nw.touch(e)
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
// before each augmenting-path search — never inside one — so a canceled
// probe returns promptly with a partial (lower-bound) flow value. Callers
// that armed a context must check it after the probe and discard the
// value; the network itself stays consistent and reusable.
func (nw *network) maxflowCounted(s, t, limit int) (flow int, paths int64) {
	if s == t {
		return inf, 0
	}
	for !nw.canceled() {
		f := nw.findAndPush(int32(s), int32(t))
		if f == 0 {
			break
		}
		paths++
		flow += int(f)
		if limit >= 0 && flow >= limit {
			break
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
