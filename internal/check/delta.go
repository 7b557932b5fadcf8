package check

// Incremental re-verification under churn.
//
// A full verification is O(n) max-flow probes; under sustained churn the
// topology changes by O(k²) edges per event, so re-running the campaign
// from scratch throws away almost everything the previous report already
// established. DeltaVerifier.Advance re-derives the full report from
// (previous report, edge delta) with a handful of LOCALIZED probes, falling
// back to the full campaign whenever the fast path cannot certify
// exactness. The previous report is always one the verifier computed
// itself, never one a caller hands in.
//
// Soundness. Let G be the previous graph with κ(G) >= c (from the
// previous report), and G′ the graph after the delta. Write survivors for
// the labels present in both. The fast path certifies κ(G′) >= c by a
// localization argument with every probe running in G′ itself. Suppose X,
// |X| < c, disconnects G′; consider the components of G′−X:
//
//   - A component with no survivor consists of newly admitted labels; the
//     expansion check below (every subset S of admissions sees >= c
//     distinct outside vertices) rules it out, since its neighborhood
//     lies inside X.
//   - Otherwise take survivors x,y in different components. |X| < κ(G)
//     gives an x-y path in G−X; walking it, some deleted element must
//     bridge the components — an edge of G absent from G′ is either a
//     removed survivor-survivor edge (u,v), or lies in a maximal run of
//     departed labels whose survivor boundary now spans two components.
//     The candidate pairs are exactly: endpoints of removed survivor
//     edges, plus all boundary pairs of each connected component of the
//     departed subgraph. A bridging pair sits in different components of
//     G′−X, so it is not adjacent in G′, and its vertex-cut probe in G′
//     would report < c. The plan therefore keeps only the candidates that
//     are non-adjacent in G′, one flow each. If every probe passes, no
//     small cut exists. (Probing G′ rather than a survivor-only view
//     matters: after a batched admission the new labels may carry the
//     very connectivity the removed edges used to.)
//
// λ needs no probes of its own. Choosing c = δ(G′), Whitney's
// κ <= λ <= δ turns κ(G′) >= c into κ(G′) = λ(G′) = δ(G′), which is the
// only case the fast path reports; anything weaker falls back to Verify
// so the report stays bit-identical to a fresh full verification (timing
// phases aside, which are wall-clock). The probes of one Advance form one
// flow.VertexCutsAtLeast batch: one split-node arena of G′, re-armed per
// pair, under the same sweep driver and worker budget as Verify's κ
// sweep. P3 runs through the SAME verifyLinkMinimality as the full
// campaign (free for regular graphs via the Δ = λ shortcut, the identical
// edge sweep otherwise), and P4 distances are always recomputed exactly —
// diameter does not localize. What the fast path elides is precisely the
// κ and λ phases: two O(n)-probe campaigns become O(|frontier|) localized
// probes on one arena. The exact P4 sweep is the bit-parallel
// all-sources BFS of graph.DistanceStatsCtx (256 sources per pass); with
// the probes batched it is most of an Advance at n=4096 (EXPERIMENTS
// E31).

import (
	"context"
	"fmt"

	"lhg/internal/flow"
	"lhg/internal/graph"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

var (
	mDeltaRuns      = obs.NewCounter("check.delta.runs")
	mDeltaFastPaths = obs.NewCounter("check.delta.fastpath")
	mDeltaFallbacks = obs.NewCounter("check.delta.fallbacks")
	mDeltaPairs     = obs.NewCounter("check.delta.pair_probes")
)

// deltaProbeGate bounds the localized campaign: if the planned pair count
// exceeds n/deltaProbeGateDiv (min deltaProbeGateFloor), the touched
// frontier is so large that the full campaign is competitive — fall back.
const (
	deltaProbeGateDiv   = 4
	deltaProbeGateFloor = 16
)

// expansionCompCap bounds the exhaustive subset check over one connected
// component of the admitted-label subgraph (2^cap masks). The engines admit
// in O(k)-sized clusters, so real components are far smaller.
const expansionCompCap = 12

// DeltaVerifier carries verification state across a churn stream: the
// current graph and its full report. It is the engine behind the daemon's
// stateful reconfigure sessions. Not safe for concurrent use; callers
// serialize Advance.
type DeltaVerifier struct {
	k      int
	opt    Options
	g      *graph.Graph
	report *Report
}

// NewDeltaVerifier runs one full verification of g and arms the
// incremental state.
func NewDeltaVerifier(ctx context.Context, g *graph.Graph, k int, opt Options) (*DeltaVerifier, error) {
	r, err := Verify(ctx, g, k, opt)
	if err != nil {
		return nil, err
	}
	return &DeltaVerifier{k: k, opt: opt, g: g, report: r}, nil
}

// Graph returns the current epoch's graph.
func (dv *DeltaVerifier) Graph() *graph.Graph { return dv.g }

// Report returns the current epoch's report.
func (dv *DeltaVerifier) Report() *Report { return dv.report }

// Advance applies d (resizing to n nodes), re-verifies incrementally and
// returns the new report — bit-identical to a fresh full verification of
// the new graph. On error the verifier keeps its previous epoch.
func (dv *DeltaVerifier) Advance(ctx context.Context, d graph.EdgeDelta, n int) (*Report, error) {
	next, err := dv.g.ApplyDelta(d, n)
	if err != nil {
		return nil, err
	}
	r, err := verifyDelta(ctx, dv.g, dv.report, d, next, dv.k, dv.opt)
	if err != nil {
		return nil, err
	}
	dv.g, dv.report = next, r
	return r, nil
}

func verifyDelta(ctx context.Context, prevG *graph.Graph, prev *Report, d graph.EdgeDelta, next *graph.Graph, k int, opt Options) (*Report, error) {
	n := next.Order()
	if n <= k {
		return nil, fmt.Errorf("check: k=%d must be < n=%d", k, n)
	}
	mDeltaRuns.Inc()
	fctx, fsp := trace.StartSpan(ctx, "check.delta.fastpath")
	r, ok, err := deltaFastPath(fctx, prevG, prev, d, next, k, opt)
	if fsp.Live() {
		if ok {
			fsp.SetAttr(trace.Str("outcome", "certified"))
		} else {
			fsp.SetAttr(trace.Str("outcome", "fallback"))
		}
	}
	fsp.End()
	if err != nil {
		return nil, err
	}
	if ok {
		mDeltaFastPaths.Inc()
		return r, nil
	}
	mDeltaFallbacks.Inc()
	bctx, bsp := trace.StartSpan(ctx, "check.delta.fallback")
	r, err = Verify(bctx, next, k, opt)
	bsp.End()
	return r, err
}

// deltaFastPath attempts the localized re-verification. ok=false means
// "cannot certify, run the full campaign" — never an incorrect report.
func deltaFastPath(ctx context.Context, prevG *graph.Graph, prev *Report, d graph.EdgeDelta, next *graph.Graph, k int, opt Options) (*Report, bool, error) {
	props := opt.Props.normalized()
	if props != PropAll {
		// Partial reports: the previous epoch, verified with the same
		// options, has no κ and λ to lean on.
		return nil, false, nil
	}
	workers := graph.ClampWorkers(opt.Workers, 0)
	n, oldN := next.Order(), prevG.Order()
	r := &Report{N: n, M: next.Size(), K: k, Workers: workers, Checked: props}
	r.MinDegree, _ = next.MinDegree()
	r.MaxDegree, _ = next.MaxDegree()
	r.Regular = next.IsRegular(k)

	// The pin target: both connectivities will be certified equal to δ(G′).
	c := r.MinDegree
	if c < 1 || prev.NodeConnectivity < c {
		return nil, false, nil
	}

	// Plan the localized pair probes.
	nSurv := oldN
	if n < nSurv {
		nSurv = n
	}
	gate := n / deltaProbeGateDiv
	if gate < deltaProbeGateFloor {
		gate = deltaProbeGateFloor
	}
	pairs, ok := planDeltaPairs(prevG, next, d, nSurv, gate)
	if !ok {
		return nil, false, nil
	}
	// Every subset of the new admissions must expand into >= c outside
	// vertices (the all-admitted-side cut case).
	if n > oldN && !newSideExpansion(next, oldN, c) {
		return nil, false, nil
	}

	// Probe phase: every planned pair must keep its vertex cut >= c in
	// next. One batch of early-exit flows; any miss falls back to the
	// full campaign.
	ph := phaseRunner{ctx: ctx, spanPrefix: "check.", phases: &r.Phases}
	healthy := false
	if err := ph.run("delta-probes", func(pctx context.Context) error {
		mDeltaPairs.Add(int64(len(pairs)))
		var err error
		healthy, err = flow.VertexCutsAtLeast(pctx, next, pairs, c, workers)
		return err
	}); err != nil || !healthy {
		return nil, false, err
	}

	// Pin: c <= κ(G′) (localization + expansion) and κ(G′) <= λ(G′) <=
	// δ(G′) = c (Whitney), so both connectivities are exactly c — no
	// regularity assumption needed.
	r.NodeConnectivity = c
	r.EdgeConnectivity = c
	r.KNodeConnected = c >= k
	r.KLinkConnected = c >= k

	// P3 and P4 run through the same phases as the full campaign, so the
	// values (and the P3 witness edge, if any) are identical by
	// construction.
	if err := ph.minimalityAndDistances(next, r, props, workers); err != nil {
		return nil, false, err
	}
	return r, true, nil
}

// planDeltaPairs derives the probe pairs of the localization lemma:
// endpoints of removed survivor-survivor edges, plus — for every connected
// component of the subgraph induced on departed labels — every pair of its
// survivor boundary, keeping only the pairs non-adjacent in next (no
// vertex cut separates the others). Returns ok=false when the plan
// exceeds the gate, which therefore counts flows.
func planDeltaPairs(prevG, next *graph.Graph, d graph.EdgeDelta, nSurv, gate int) ([][2]int, bool) {
	seen := make(map[[2]int]bool)
	var pairs [][2]int
	addPair := func(u, v int) bool {
		if u == v || u >= nSurv || v >= nSurv || next.HasEdge(u, v) {
			return true
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			return true
		}
		seen[key] = true
		pairs = append(pairs, key)
		return len(pairs) <= gate
	}
	for _, e := range d.Removed {
		if e.U < nSurv && e.V < nSurv {
			if !addPair(e.U, e.V) {
				return nil, false
			}
		}
	}
	oldN := prevG.Order()
	if oldN > nSurv {
		// Departed components and their survivor boundaries, via BFS over
		// the induced subgraph on labels [nSurv, oldN).
		visited := make([]bool, oldN-nSurv)
		for s := nSurv; s < oldN; s++ {
			if visited[s-nSurv] {
				continue
			}
			var stack []int
			boundary := make(map[int]bool)
			visited[s-nSurv] = true
			stack = append(stack, s)
			for len(stack) > 0 {
				z := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, nb := range prevG.Neighbors(z) {
					if nb >= nSurv {
						if !visited[nb-nSurv] {
							visited[nb-nSurv] = true
							stack = append(stack, nb)
						}
					} else {
						boundary[nb] = true
					}
				}
			}
			bs := make([]int, 0, len(boundary))
			for b := range boundary {
				bs = append(bs, b)
			}
			for i := 0; i < len(bs); i++ {
				for j := i + 1; j < len(bs); j++ {
					if !addPair(bs[i], bs[j]) {
						return nil, false
					}
				}
			}
		}
	}
	return pairs, true
}

// newSideExpansion certifies the all-admitted-side case of the cut
// lemma: every nonempty set S of newly admitted labels [oldN, n) must see
// >= c distinct vertices outside S, else S's neighborhood is a < c vertex
// cut. A set that splits into non-adjacent pieces inherits the bound from
// its pieces (N(S₁)\S₁ ⊆ N(S)\S), so enumerating the subsets of each
// connected component of the admitted-label subgraph is exhaustive.
// Declines (false) when a component exceeds expansionCompCap; batched
// admissions wire into O(k)-sized clusters, so that only trips on
// adversarial deltas.
func newSideExpansion(next *graph.Graph, oldN, c int) bool {
	n := next.Order()
	// pos[v-oldN] is 1 + v's index in its component, 0 while unvisited.
	// Every admitted neighbor of a component member is in the component.
	pos := make([]int, n-oldN)
	// seen[v] == stamp marks v as counted for the current subset.
	seen := make([]int, n)
	stamp := 0
	for s := oldN; s < n; s++ {
		if pos[s-oldN] != 0 {
			continue
		}
		comp := []int{s}
		pos[s-oldN] = 1
		for i := 0; i < len(comp); i++ {
			next.EachNeighbor(comp[i], func(nb int) {
				if nb >= oldN && pos[nb-oldN] == 0 {
					comp = append(comp, nb)
					pos[nb-oldN] = len(comp)
				}
			})
		}
		if len(comp) > expansionCompCap {
			return false
		}
		for mask := 1; mask < 1<<len(comp); mask++ {
			stamp++
			outVerts := 0
			for i, v := range comp {
				if mask&(1<<i) == 0 {
					continue
				}
				next.EachNeighbor(v, func(nb int) {
					if nb >= oldN && mask&(1<<(pos[nb-oldN]-1)) != 0 {
						return
					}
					if seen[nb] != stamp {
						seen[nb] = stamp
						outVerts++
					}
				})
			}
			if outVerts < c {
				return false
			}
		}
	}
	return true
}
