// Package check verifies the defining properties of Logarithmic Harary
// Graphs (Jenkins & Demers, ICDCS 2001; formalized by Baldoni et al.):
//
//	P1  k-node connectivity    — removing any k-1 nodes leaves G connected
//	P2  k-link connectivity    — removing any k-1 links leaves G connected
//	P3  link minimality        — removing any link lowers node or link
//	                             connectivity
//	P4  logarithmic diameter   — diameter is O(log n)
//	P5  k-regularity           — every node has degree exactly k (optional:
//	                             it characterizes edge-minimal LHGs)
//
// P1 and P2 are checked exactly via max-flow (Menger's theorem), not by
// sampling, and always on g itself: Verify, Screen and the delta
// verifier's fallback share one κ/λ path (flow.VertexConnectivity and
// flow.EdgeConnectivity). P4 is checked against the bound the
// constructions guarantee, diameter <= 2*log_{k-1}(n) + DiameterSlack, and
// the raw values are reported so callers can apply their own bound. Only
// Screen, which skips P3 and the all-sources distance sweep, answers P4
// from ecc(0) with a three-valued verdict.
package check

import (
	"context"
	"fmt"
	"math"
	"strings"

	"lhg/internal/flow"
	"lhg/internal/graph"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

// Verification telemetry. Phase durations live in Report.Phases and the
// phase spans only; the probe counter handle is the same registered
// metric the flow layer increments (registration is idempotent), so the
// per-phase probe deltas in Report come from the authoritative counter.
var (
	mVerifyRuns    = obs.NewCounter("check.verify.runs")
	gVerifyWorkers = obs.NewGauge("check.verify.workers")
	mP3EdgesProbed = obs.NewCounter("check.p3.edges_probed")
	mFlowProbes    = obs.NewCounter("flow.maxflow.probes")
)

// SparsifyCutoff defines a dense graph: m > SparsifyCutoff·k·n.
// Verification does not branch on it (the κ and λ sweeps run on g itself
// at every density); benchmark and test inputs that must be dense are
// sized against it.
const SparsifyCutoff = 2

// DiameterSlack is the additive slack allowed on top of 2*log_{k-1}(n) when
// evaluating P4. The constructions in this repository satisfy the bound with
// slack 2; the default leaves headroom for the k-diamond clique hop and the
// added-leaf level.
const DiameterSlack = 3

// Report holds the outcome of verifying every LHG property of a graph for a
// target connectivity k.
type Report struct {
	N int // number of nodes
	M int // number of edges
	K int // target connectivity

	NodeConnectivity int  // exact κ(G)
	EdgeConnectivity int  // exact λ(G)
	KNodeConnected   bool // P1: κ >= k
	KLinkConnected   bool // P2: λ >= k

	LinkMinimal   bool       // P3
	ViolatingEdge graph.Edge // a removable edge when P3 fails
	hasViolation  bool

	// RestrictedEdgeConnectivity is λ′(G) — the smallest edge cut that
	// disconnects G without isolating a node — when PropRestrictedEdge is
	// selected; -1 when λ′ is undefined for g (stars, triangles, graphs
	// with isolated nodes). Zero when unchecked.
	RestrictedEdgeConnectivity int
	// SuperEdgeConnected reports (when PropSuperEdge is selected) that
	// every minimum edge cut isolates a single node: λ ≥ 1, λ = δ, and
	// λ′ > λ or λ′ undefined.
	SuperEdgeConnected bool

	Diameter      int     // exact diameter (-1 if disconnected)
	DiameterBound int     // the bound used for P4
	LogDiameter   bool    // P4
	Regular       bool    // P5
	MinDegree     int     // smallest degree
	MaxDegree     int     // largest degree
	AvgPathLen    float64 // mean shortest-path length (-1 if disconnected)

	// Workers is the goroutine budget the run used (1 = serial).
	Workers int `json:"workers"`
	// Checked records which properties this run computed (PropAll for the
	// full report). Fields of unchecked properties hold their zero values.
	Checked Properties `json:"checked"`
	// Phases records per-phase wall time in execution order. Probe counts
	// are filled from the metrics registry when the obs sink is enabled.
	Phases []PhaseTiming `json:"phases,omitempty"`
}

// PhaseTiming is the wall time (and, with the obs sink enabled, the
// max-flow probe count) of one verification phase.
type PhaseTiming struct {
	Phase  string  `json:"phase"`
	Ms     float64 `json:"ms"`
	Probes int64   `json:"probes,omitempty"`
}

// phaseRunner runs the phases of one verification (span prefix "check.")
// or screen ("check.screen.") run and records them into *phases.
type phaseRunner struct {
	ctx        context.Context
	spanPrefix string
	phases     *[]PhaseTiming
}

// run opens a span around one phase and records its PhaseTiming from the
// span's measured duration — the span is the single timing source,
// whether or not tracing is enabled (see trace.StartTimed). fn gets a
// context that descends from the span, so flow-layer worker spans nest
// under their phase, and max-flow probes are attributed via the shared
// flow counter. A canceled ctx aborts before fn runs; fn's error
// (cancellation) aborts the run.
func (ph phaseRunner) run(name string, fn func(context.Context) error) error {
	if err := ph.ctx.Err(); err != nil {
		return err
	}
	p0 := mFlowProbes.Value()
	pctx, span := trace.StartTimed(ph.ctx, ph.spanPrefix+name)
	err := fn(pctx)
	probes := mFlowProbes.Value() - p0
	if sp := span.Span(); sp.Live() {
		sp.SetAttr(trace.Int("probes", probes))
	}
	d := span.End()
	*ph.phases = append(*ph.phases, PhaseTiming{
		Phase:  name,
		Ms:     float64(d) / 1e6,
		Probes: probes,
	})
	return err
}

// PhaseBreakdown renders the structured timing block printed by
// `lhcheck -v`: one line per phase plus a total.
func (r *Report) PhaseBreakdown() string {
	if len(r.Phases) == 0 {
		return ""
	}
	var b strings.Builder
	total := 0.0
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-12s %10.2fms", p.Phase+":", p.Ms)
		if p.Probes > 0 {
			fmt.Fprintf(&b, "  (%d max-flow probes)", p.Probes)
		}
		b.WriteByte('\n')
		total += p.Ms
	}
	fmt.Fprintf(&b, "  %-12s %10.2fms  (workers: %d)\n", "total:", total, r.Workers)
	return b.String()
}

// IsLHG reports whether all four mandatory LHG properties hold.
func (r *Report) IsLHG() bool {
	return r.KNodeConnected && r.KLinkConnected && r.LinkMinimal && r.LogDiameter
}

// String renders a one-line summary of the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d k=%d κ=%d λ=%d diam=%d(bound %d)",
		r.N, r.M, r.K, r.NodeConnectivity, r.EdgeConnectivity, r.Diameter, r.DiameterBound)
	fmt.Fprintf(&b, " P1=%t P2=%t P3=%t P4=%t regular=%t", r.KNodeConnected,
		r.KLinkConnected, r.LinkMinimal, r.LogDiameter, r.Regular)
	if r.Checked.Has(PropRestrictedEdge) {
		fmt.Fprintf(&b, " λ'=%d", r.RestrictedEdgeConnectivity)
	}
	if r.Checked.Has(PropSuperEdge) {
		fmt.Fprintf(&b, " super=%t", r.SuperEdgeConnected)
	}
	return b.String()
}

// Verify is the context-first verification driver: it computes the
// selected properties (Options.Props; zero means all) for g against
// target connectivity k with the independent probes fanned across
// Options.Workers goroutines (<= 0 means GOMAXPROCS, 1 runs serially).
// It is exact and therefore O(n·maxflow) — intended for verification, not
// for hot paths. k must be at least 1 and less than n.
//
// Cancellation is honored at three granularities: between phases, between
// max-flow probes, and — inside each probe — between augmenting-path
// iterations, so even a verification dominated by one huge max-flow
// campaign stops within one augmentation of ctx firing. A canceled run
// joins its workers, returns ctx.Err() and leaves the pooled flow
// networks and BFS scratch reusable.
//
// The report is deterministic: identical values (and the same P3 witness
// edge) as the serial path, regardless of the worker count.
func Verify(ctx context.Context, g *graph.Graph, k int, opt Options) (*Report, error) {
	n := g.Order()
	if k < 1 {
		return nil, fmt.Errorf("check: connectivity target k=%d must be >= 1", k)
	}
	if n <= k {
		return nil, fmt.Errorf("check: k=%d must be < n=%d", k, n)
	}
	workers := graph.ClampWorkers(opt.Workers, 0)
	props := opt.Props.normalized()
	r := &Report{N: n, M: g.Size(), K: k, Workers: workers, Checked: props}
	r.MinDegree, _ = g.MinDegree()
	r.MaxDegree, _ = g.MaxDegree()
	r.Regular = g.IsRegular(k)
	mVerifyRuns.Inc()
	gVerifyWorkers.Set(int64(workers))

	ph := phaseRunner{ctx: ctx, spanPrefix: "check.", phases: &r.Phases}

	var err error
	if r.NodeConnectivity, r.EdgeConnectivity, err = ph.connectivity(g, workers, props); err != nil {
		return nil, err
	}
	r.KNodeConnected = props.Has(PropNodeConnectivity) && r.NodeConnectivity >= k
	r.KLinkConnected = props.Has(PropLinkConnectivity) && r.EdgeConnectivity >= k

	if props.Has(PropRestrictedEdge) {
		if err := ph.run("restricted", func(pctx context.Context) (err error) {
			r.RestrictedEdgeConnectivity, err = flow.RestrictedEdgeConnectivity(pctx, g, workers)
			return err
		}); err != nil {
			return nil, err
		}
		if props.Has(PropSuperEdge) {
			lp := r.RestrictedEdgeConnectivity
			r.SuperEdgeConnected = r.EdgeConnectivity >= 1 &&
				r.EdgeConnectivity == r.MinDegree &&
				(lp == -1 || lp > r.EdgeConnectivity)
		}
	}

	if err := ph.minimalityAndDistances(g, r, props, workers); err != nil {
		return nil, err
	}
	return r, nil
}

// connectivity runs the exact κ and λ sweeps selected in props on g, as
// the "kappa" and "lambda" phases. It is the one κ/λ path: Verify and
// Screen both call it, and a property that props leaves out reads 0.
func (ph phaseRunner) connectivity(g *graph.Graph, workers int, props Properties) (kappa, lambda int, err error) {
	if props.Has(PropNodeConnectivity) {
		if err := ph.run("kappa", func(pctx context.Context) (err error) {
			kappa, err = flow.VertexConnectivity(pctx, g, workers)
			return err
		}); err != nil {
			return 0, 0, err
		}
	}
	if props.Has(PropLinkConnectivity) {
		if err := ph.run("lambda", func(pctx context.Context) (err error) {
			lambda, err = flow.EdgeConnectivity(pctx, g, workers)
			return err
		}); err != nil {
			return 0, 0, err
		}
	}
	return kappa, lambda, nil
}

// minimalityAndDistances runs the P3 and P4 phases selected in props on g
// once r holds κ and λ. Verify and the delta fast path share it, so both
// report the same P3 witness and the same distances by construction.
func (ph phaseRunner) minimalityAndDistances(g *graph.Graph, r *Report, props Properties, workers int) error {
	if props.Has(PropLinkMinimality) {
		if err := ph.run("minimality", func(pctx context.Context) (err error) {
			r.LinkMinimal, err = verifyLinkMinimality(pctx, g, r, workers)
			return err
		}); err != nil {
			return err
		}
	}
	if props.Has(PropDiameter) {
		if err := ph.run("distances", func(pctx context.Context) (err error) {
			r.Diameter, r.AvgPathLen, err = g.DistanceStatsCtx(pctx, workers)
			return err
		}); err != nil {
			return err
		}
		r.DiameterBound = DiameterBound(r.N, r.K)
		r.LogDiameter = r.Diameter >= 0 && r.Diameter <= r.DiameterBound
	}
	return nil
}

// DiameterBound returns the P4 acceptance bound 2*ceil(log_{k-1}(n)) +
// DiameterSlack. For k <= 2 the logarithm base degenerates, so the bound
// falls back to n (no graph can exceed it; P4 is then vacuous, which
// mirrors the paper's implicit k >= 3 assumption).
func DiameterBound(n, k int) int {
	if k <= 2 || n < 2 {
		return n
	}
	logv := math.Log(float64(n)) / math.Log(float64(k-1))
	return 2*int(math.Ceil(logv)) + DiameterSlack
}

// verifyLinkMinimality checks P3: every single-edge removal must reduce the
// node or link connectivity below its current value. For k-regular graphs
// this is immediate (removing an edge drops a degree below κ=λ=k), so the
// per-edge probes only run for irregular graphs.
//
// Each probe is two single-pair max flows on the masked CSR view
// (flow.EdgesRemovable) — connectivity under an edge removal can only drop
// through cuts separating that edge's endpoints, so no clone and no global
// re-sweep is needed. With workers > 1 the probes fan out across a worker
// pool.
func verifyLinkMinimality(ctx context.Context, g *graph.Graph, r *Report, workers int) (bool, error) {
	kappa, lambda := r.NodeConnectivity, r.EdgeConnectivity
	if kappa == 0 || lambda == 0 {
		return false, nil // already disconnected; nothing to preserve
	}
	if r.MaxDegree == lambda {
		// λ <= δ <= Δ == λ, so the graph is λ-regular: removing any edge
		// lowers a degree below λ and with it the link connectivity.
		return true, nil
	}
	mP3EdgesProbed.Add(int64(g.Size()))
	// An edge with an endpoint of degree <= max(κ, λ) is never removable
	// (the degree shortcut of flow.EdgeIsRemovable, which EdgesRemovable
	// leaves to its caller), so only the others enter the batch; the
	// first removable edge in canonical order is the same, and
	// near-regular graphs never materialize their edge list.
	var edges []graph.Edge
	g.EachEdge(func(u, v int) {
		if d := min(g.Degree(u), g.Degree(v)); d > lambda && d > kappa {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	})
	removable, err := flow.EdgesRemovable(ctx, g, edges, kappa, lambda, workers)
	if err != nil {
		return false, err
	}
	// Report the first removable edge in canonical order, so the parallel
	// and serial drivers return identical witnesses.
	for i, e := range edges {
		if removable[i] {
			r.ViolatingEdge = e
			r.hasViolation = true
			return false, nil
		}
	}
	return true, nil
}

// Violation returns the edge witnessing a P3 failure, if any.
func (r *Report) Violation() (graph.Edge, bool) {
	return r.ViolatingEdge, r.hasViolation
}

// MooreDiameterLowerBound returns the smallest diameter any graph with n
// nodes and maximum degree k can possibly have (the Moore bound):
// n <= 1 + k·Σ_{i=0}^{D-1}(k-1)^i. The LHG constructions sit within a
// small constant factor of this optimum, which is the content of E10's
// comparison column.
func MooreDiameterLowerBound(n, k int) int {
	if n <= 1 {
		return 0
	}
	if k <= 1 {
		return n - 1
	}
	if k == 2 {
		return (n - 1 + 1) / 2 // a path/cycle: ceil((n-1)/2) for cycles
	}
	reach := 1
	layer := k
	for d := 1; ; d++ {
		reach += layer
		if reach >= n {
			return d
		}
		layer *= k - 1
	}
}
