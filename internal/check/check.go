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
// sampling. P4 is checked against the bound the constructions guarantee,
// diameter <= 2*log_{k-1}(n) + DiameterSlack, and the raw values are
// reported so callers can apply their own bound.
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

// Verification telemetry. The phase timers mirror Report.Phases into the
// metrics registry; the probe counter handles are the same registered
// metrics the flow layer increments (registration is idempotent), so the
// per-phase probe deltas in Report come from the authoritative counters.
var (
	mVerifyRuns      = obs.NewCounter("check.verify.runs")
	gVerifyWorkers   = obs.NewGauge("check.verify.workers")
	mP3EdgesProbed   = obs.NewCounter("check.p3.edges_probed")
	tPhaseKappa      = obs.NewTimer("check.phase.kappa")
	tPhaseLambda     = obs.NewTimer("check.phase.lambda")
	tPhaseMinimality = obs.NewTimer("check.phase.minimality")
	tPhaseDistances  = obs.NewTimer("check.phase.distances")
	tPhaseSparsify   = obs.NewTimer("check.phase.sparsify")
	tPhaseRestricted = obs.NewTimer("check.phase.restricted")
	mFlowProbes      = obs.NewCounter("flow.maxflow.probes")

	mSparsifyPasses  = obs.NewCounter("check.sparsify.passes")
	mSparsifyKept    = obs.NewCounter("check.sparsify.edges_kept")
	mSparsifyDropped = obs.NewCounter("check.sparsify.edges_dropped")
)

// SparsifyCutoff is the density threshold of the automatic sparsify fast
// path: the κ/λ probe phases switch from the full edge set to the
// Nagamochi–Ibaraki certificate when m > SparsifyCutoff·k·n. Below the
// cutoff the certificate cannot drop enough edges to pay for its own
// construction, so sparse graphs — every well-formed LHG — keep the
// historical probe-everything path.
const SparsifyCutoff = 2

// sparseProbeView resolves the graph the κ/λ connectivity probes run on
// under the given policy: g itself when the policy or the density gate
// (m > SparsifyCutoff·k·n) rules the certificate out, otherwise a
// Nagamochi–Ibaraki certificate built inside its own "sparsify" phase.
//
// The certificate is built for q = δ(G)+1, one past the minimum degree.
// Since κ(G) <= λ(G) <= δ(G) < q (Whitney), the Nagamochi–Ibaraki bounds
// pin both connectivity values of the certificate to the exact values of
// G — not just the "≥ k" verdicts — so every field of the Report is
// bit-identical with and without sparsification. Under SparsifyAuto a
// certificate that would shed no edge (dense-regular graphs, where δ ≈
// 2m/n keeps every edge in the first δ forests) is dropped for g. P3
// minimality and P4 distance probes must NOT use the view: removing edges
// changes distances and per-edge removability, so those phases always run
// on g itself.
func sparseProbeView(ph phaseRunner, g *graph.Graph, k int, policy Sparsify) (*graph.Graph, error) {
	n, m := g.Order(), g.Size()
	if policy == SparsifyOff || n < 2 || m == 0 ||
		(policy != SparsifyAlways && m <= SparsifyCutoff*k*n) {
		return g, nil
	}
	view := g
	err := ph.run("sparsify", tPhaseSparsify, func(context.Context) error {
		minDeg, _ := g.MinDegree()
		cert := graph.SparseCertificate(g, minDeg+1)
		if cert.Size() >= m && policy != SparsifyAlways {
			return nil
		}
		mSparsifyPasses.Inc()
		mSparsifyKept.Add(int64(cert.Size()))
		mSparsifyDropped.Add(int64(m - cert.Size()))
		view = cert
		return nil
	})
	return view, err
}

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
// under their phase; the obs timer observes the same duration, and
// max-flow probes are attributed via the shared flow counter. A canceled
// ctx aborts before fn runs; fn's error (cancellation) aborts the run.
func (ph phaseRunner) run(name string, t *obs.Timer, fn func(context.Context) error) error {
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
	t.Observe(d)
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

	// The κ/λ probes may run on a sparse certificate instead of g (see
	// sparseProbeView — the q = δ+1 choice keeps the exact values, not
	// just the verdicts, identical). P3 and P4 below always use g itself.
	probeView := g
	if props&(PropNodeConnectivity|PropLinkConnectivity) != 0 {
		var err error
		if probeView, err = sparseProbeView(ph, g, k, opt.Sparsify); err != nil {
			return nil, err
		}
	}

	if props.Has(PropNodeConnectivity) {
		if err := ph.run("kappa", tPhaseKappa, func(pctx context.Context) (err error) {
			r.NodeConnectivity, err = flow.VertexConnectivity(pctx, probeView, workers)
			return err
		}); err != nil {
			return nil, err
		}
		r.KNodeConnected = r.NodeConnectivity >= k
	}
	if props.Has(PropLinkConnectivity) {
		if err := ph.run("lambda", tPhaseLambda, func(pctx context.Context) (err error) {
			r.EdgeConnectivity, err = flow.EdgeConnectivity(pctx, probeView, workers)
			return err
		}); err != nil {
			return nil, err
		}
		r.KLinkConnected = r.EdgeConnectivity >= k
	}

	if props.Has(PropRestrictedEdge) {
		if err := ph.run("restricted", tPhaseRestricted, func(pctx context.Context) (err error) {
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

	if props.Has(PropLinkMinimality) {
		if err := ph.run("minimality", tPhaseMinimality, func(pctx context.Context) (err error) {
			r.LinkMinimal, err = verifyLinkMinimality(pctx, g, r, workers)
			return err
		}); err != nil {
			return nil, err
		}
	}

	if props.Has(PropDiameter) {
		if err := ph.run("distances", tPhaseDistances, func(pctx context.Context) (err error) {
			r.Diameter, r.AvgPathLen, err = g.DistanceStatsCtx(pctx, workers)
			return err
		}); err != nil {
			return nil, err
		}
		r.DiameterBound = DiameterBound(n, k)
		r.LogDiameter = r.Diameter >= 0 && r.Diameter <= r.DiameterBound
	}
	return r, nil
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
	edges := g.Edges()
	mP3EdgesProbed.Add(int64(len(edges)))
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
