package flow

import (
	"context"
	"fmt"
	"sync/atomic"

	"lhg/internal/graph"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

// Worker-pool telemetry: spawned counts pool members across all fan-out
// drivers; busy accumulates each worker's wall time inside its probe loop.
// Utilization over a phase is busy / (workers × phase wall time).
var (
	mWorkersSpawned = obs.NewCounter("flow.workers.spawned")
	tWorkerBusy     = obs.NewTimer("flow.workers.busy")
)

// probeProgressEvery is the probe-batch granularity of the per-worker
// "probe-progress" trace events: one point event per this many completed
// probes keeps the flight recorder (and any live SSE watcher) informed
// without per-probe noise.
const probeProgressEvery = 32

// workerSpan opens the per-worker child span of a fan-out phase,
// attributing the worker id so the Chrome export renders each worker in
// its own lane. Inert (and allocation-free) when tracing is disabled.
func workerSpan(ctx context.Context, name string, w int) trace.Span {
	_, sp := trace.StartSpan(ctx, name)
	if sp.Live() {
		sp.SetAttr(trace.Int("worker", int64(w)))
	}
	return sp
}

// probeProgress emits the batched progress point for a worker that has
// finished its i-th probe (0-based) of total. Callers pass the phase's
// span; the guard keeps the disabled path free of attr allocation.
func probeProgress(sp trace.Span, i, total int) {
	if !sp.Live() || (i+1)%probeProgressEvery != 0 {
		return
	}
	sp.Event("probe-progress", trace.Int("done", int64(i+1)), trace.Int("total", int64(total)))
}

// Probe sweeps. Every global question of this package (κ, λ, λ′, the
// global min cut and the P3 removal batch) is a fixed set of max-flow
// probes over one topology. The caller builds that topology once as a
// pooled arena; worker 0 probes on it and every extra worker on a copy,
// re-arming capacities per probe instead of rebuilding. The frozen
// CSR graph is shared read-only. Probes are scheduled by the work stealer
// (steal.go), which runs a one-worker sweep inline on the caller in index
// order.
//
// Cancellation: the arenas are armed with ctx, so in-flight probes stop
// between augmenting-path iterations, and the stealer stops handing out
// probes once ctx fires. The drivers join every worker before returning —
// cancellation never leaks a goroutine — and report ctx.Err() once the
// pool has drained.

// buildArena builds the one topology of a sweep on the caller, into a
// pooled network armed with ctx. Worker 0 probes on it; every other worker
// probes on a copy (workerNet).
func buildArena(ctx context.Context, size int, build func(*network)) *network {
	nw := getNetwork(size)
	nw.watch(ctx)
	build(nw)
	return nw
}

// workerNet returns the network worker w probes on: the arena itself for
// worker 0, a pooled copy for any other. Copies read only the parts of the
// arena that finish froze (targets, CSR index, pristine capacities), so
// they are safe while worker 0 probes it.
func workerNet(ctx context.Context, arena *network, w int) *network {
	if w == 0 {
		return arena
	}
	nw := getNetwork(arena.n)
	nw.watch(ctx)
	nw.copyTopology(arena)
	return nw
}

// sweepMin runs probe(nw, i, limit) for every i in [0, total) under one
// running minimum and returns it. The minimum starts at start and is the
// early-exit limit of every probe: a stale (too high) limit in a parallel
// sweep only costs extra augmentation, never correctness, because any
// flow value below the limit is exact. The sweep stops as soon as the
// minimum reaches 0 (nothing is below it) and runs no probe at all when
// start is already 0. With one worker the probes run inline in index
// order, so probe order, limits and probe counts are those of a plain
// loop.
func sweepMin(ctx context.Context, span string, total, workers, start, size int,
	build func(*network), probe func(nw *network, i, limit int) int) (int, error) {
	if start < 1 || total == 0 {
		return start, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	arena := buildArena(ctx, size, build)
	defer putNetwork(arena)
	var best atomic.Int64
	best.Store(int64(start))
	runStealing(ctx, span, total, workers, func(w int, next func() (int, bool)) {
		var nw *network
		if w > 0 {
			defer func() { putNetwork(nw) }()
		}
		for {
			limit := int(best.Load())
			if limit < 1 {
				return
			}
			i, ok := next()
			if !ok {
				return
			}
			if nw == nil {
				nw = workerNet(ctx, arena, w)
			}
			if f := probe(nw, i, limit); f < limit && ctx.Err() == nil {
				atomicMin(&best, f)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return int(best.Load()), nil
}

// atomicMin lowers a to v if v is smaller, returning the post-update value.
func atomicMin(a *atomic.Int64, v int) int {
	for {
		cur := a.Load()
		if int64(v) >= cur {
			return int(cur)
		}
		if a.CompareAndSwap(cur, int64(v)) {
			return v
		}
	}
}

// lambdaProbePlan fixes the shared-λ probe set: a deterministic greedy
// dominating set D with pivot d0 = D[0]. By Matula's observation, if
// λ(G) < δ(G) then each side of a minimum edge cut contains a node all of
// whose neighbors lie on that side (the side has ≤ λ < δ outgoing edges,
// too few for every member to reach across), so every dominating set
// intersects both sides and λ(G) = min(δ, min over d ∈ D∖{d0} of the
// d0-d min cut). That replaces the classic n−1 per-target λ probes with
// |D|−1 ≈ n/(δ+1) probes sharing one pivot.
func lambdaProbePlan(g *graph.Graph) (d0 int, targets []int) {
	dom := g.DominatingSet()
	return dom[0], dom[1:]
}

// canonicalIndices maps each edge to its index in the canonical g.Edges()
// enumeration, the key the masked-arena P3 probes use to zero an edge's
// arc window without rebuilding. The enumeration walks each node's upper
// neighbors in row order, so edge (u,v), u < v, sits at first[u] (the
// upper neighbors of every node below u) plus v's rank among u's upper
// neighbors. An edge that is not in g is an error.
func canonicalIndices(g *graph.Graph, edges []graph.Edge) ([]int32, error) {
	n := g.Order()
	first := make([]int32, n+1)
	for u := 0; u < n; u++ {
		first[u+1] = first[u] + int32(g.Degree(u)-g.NeighborRank(u, u))
	}
	idx := make([]int32, len(edges))
	for j, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if !g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("flow: edge (%d,%d) is not in the graph", edges[j].U, edges[j].V)
		}
		idx[j] = first[e.U] + int32(g.NeighborRank(e.U, e.V)-g.NeighborRank(e.U, e.U))
	}
	return idx, nil
}

// EdgesRemovable runs the EdgeIsRemovable predicate over a batch of edges
// of g across `workers` goroutines under ctx and returns a parallel bool
// slice: out[i] reports whether edges[i] can be removed without lowering
// κ below kappa or λ below lambda. It is the fan-out primitive of the P3
// link-minimality sweep in internal/check. Every edge must be an edge of
// g; one that is not is an error.
//
// Edges whose endpoint degree already caps a probe below its bar take the
// degree shortcut of EdgeIsRemovable without a flow. The rest run on
// one unmasked edge arena and one split-node arena, built once: every
// probe is rearm + canonical-index mask + early-exit max flow — two
// capacity copies per edge instead of two topology rebuilds, which is
// where the P3 sweep spends its time on large instances. A canceled sweep
// drains its workers, then returns ctx.Err() and no slice.
func EdgesRemovable(ctx context.Context, g *graph.Graph, edges []graph.Edge, kappa, lambda, workers int) ([]bool, error) {
	idx, err := canonicalIndices(g, edges)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(edges))
	// Degree shortcut: an endpoint of degree <= max(kappa, lambda) caps
	// the corresponding probe below its bar in G−e, so the verdict is
	// false without a flow. On near-regular instances with λ = δ this
	// skips almost every edge — the P3 sweep becomes a degree scan.
	var probed []int
	for i, e := range edges {
		if d := min(g.Degree(e.U), g.Degree(e.V)); d > lambda && d > kappa {
			probed = append(probed, i)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(probed) == 0 {
		return out, nil
	}
	n := g.Order()
	eArena := buildArena(ctx, n, func(nw *network) { nw.buildEdge(g, noEdge) })
	defer putNetwork(eArena)
	vArena := buildArena(ctx, 2*n, func(nw *network) { nw.buildVertexBase(g, n+1, noEdge) })
	defer putNetwork(vArena)
	runStealing(ctx, "flow.minimality.worker", len(probed), workers, func(w int, next func() (int, bool)) {
		var eNet, vNet *network // copied lazily: a starved worker copies nothing
		if w > 0 {
			defer func() {
				putNetwork(eNet)
				putNetwork(vNet)
			}()
		}
		for {
			j, ok := next()
			if !ok {
				return
			}
			i := probed[j]
			e, ci := edges[i], int(idx[i])
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			if eNet == nil {
				eNet = workerNet(ctx, eArena, w)
			}
			eNet.rearm()
			eNet.maskEdgeInEdgeNet(ci)
			if eNet.maxflow(e.U, e.V, lambda) < lambda {
				continue // λ(G−e) < λ: not removable; out[i] stays false
			}
			if vNet == nil {
				vNet = workerNet(ctx, vArena, w)
			}
			vNet.armVertexPair(e.U, e.V)
			vNet.maskEdgeInVertexNet(ci)
			out[i] = vNet.maxflow(2*e.U+1, 2*e.V, kappa) >= kappa
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
