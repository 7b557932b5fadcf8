// Package lhg builds, verifies and simulates Logarithmic Harary Graphs
// (LHGs): n-node topologies that tolerate k-1 arbitrary node or link
// failures with the minimum (or near-minimum) number of links while keeping
// the diameter — and therefore flooding latency — logarithmic in n.
//
// The package implements four constructions:
//
//   - Harary:   the classic Harary graph H(k,n) (1962). Minimum links
//     (⌈kn/2⌉) and k-connectivity, but linear diameter. The baseline.
//   - JD:       the Jenkins–Demers operational rule (ICDCS 2001). The first
//     logarithmic-diameter Harary family, but unbuildable for infinitely
//     many pairs (n,k).
//   - KTree:    the K-TREE graph constraint (Baldoni et al.). Exists for
//     every n >= 2k; k-regular when n = 2k + 2α(k-1).
//   - KDiamond: the K-DIAMOND graph constraint (Baldoni et al.). Exists for
//     every n >= 2k and is k-regular for twice as many sizes,
//     n = 2k + α(k-1).
//
// Quick start:
//
//	ctx := context.Background()
//	g, err := lhg.Build(ctx, lhg.KDiamond, 50, 4)
//	report, err := lhg.Verify(ctx, g, 4)     // proves P1..P4 via max-flow
//	res, err := lhg.Flood(ctx, g, 0, lhg.WithFailures(lhg.Failures{Nodes: []int{3, 7, 9}}))
//
// Every long-running entrypoint is context-first and options-based:
// cancel the context (or let its deadline fire) and the verification
// max-flow campaign, the flood simulation or the build stops promptly;
// pass functional options (WithWorkers, WithSeed, WithFailures,
// WithProperties) instead of reaching for signature variants. For serving
// topologies over HTTP with caching and request coalescing, see
// cmd/lhgd.
//
// See the examples directory for complete programs and cmd/experiments for
// the reproduction of every result in the paper.
package lhg

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"lhg/internal/ampguard"
	"lhg/internal/check"
	"lhg/internal/core"
	"lhg/internal/flood"
	"lhg/internal/graph"
	"lhg/internal/harary"
	"lhg/internal/member"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
	"lhg/internal/overlay"
	"lhg/internal/sim"
)

// Re-exported core types, so that typical use needs only this package.
type (
	// Graph is an undirected simple graph over nodes 0..n-1.
	Graph = graph.Graph
	// Edge is an undirected edge with U < V.
	Edge = graph.Edge
	// Report is the outcome of verifying the LHG properties.
	Report = check.Report
	// ScreenReport is the outcome of the scale screen.
	ScreenReport = check.ScreenReport
	// Failures selects crashed nodes and failed links for a flood.
	Failures = flood.Failures
	// FloodResult reports rounds, messages and coverage of one flood.
	FloodResult = flood.Result
	// Builder is the mutable accumulator for graphs: add and remove edges
	// freely, then Freeze into an immutable Graph that is safe to share
	// across goroutines.
	Builder = graph.Builder
)

// NewBuilder returns an empty mutable builder on n nodes. Call Freeze to
// obtain the immutable, shareable Graph.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges bulk-loads a frozen graph on n nodes from an edge list in one
// pass (duplicates are coalesced). It is the fastest path from external
// data — e.g. decoded JSON — to a usable Graph.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// Constraint selects a topology construction.
type Constraint int

const (
	// Harary is the classic linear-diameter baseline H(k,n).
	Harary Constraint = iota + 1
	// JD is the Jenkins–Demers LHG rule (ICDCS 2001).
	JD
	// KTree is the K-TREE graph constraint.
	KTree
	// KDiamond is the K-DIAMOND graph constraint.
	KDiamond
)

func (c Constraint) String() string {
	switch c {
	case Harary:
		return "harary"
	case JD:
		return "jd"
	case KTree:
		return "ktree"
	case KDiamond:
		return "kdiamond"
	}
	return fmt.Sprintf("constraint(%d)", int(c))
}

// allConstraints is the canonical presentation order, shared by
// Constraints and ParseConstraint so iteration order is deterministic.
var allConstraints = [...]Constraint{Harary, JD, KTree, KDiamond}

// ParseConstraint maps a name ("harary", "jd", "ktree", "kdiamond") to its
// Constraint. It scans the constraints in presentation order, so behavior
// is deterministic and the parse allocates nothing.
func ParseConstraint(s string) (Constraint, error) {
	for _, c := range allConstraints {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("lhg: unknown constraint %q (want harary, jd, ktree or kdiamond)", s)
}

// Constraints lists every supported constraint in presentation order. The
// returned slice is the caller's to keep.
func Constraints() []Constraint { return append([]Constraint(nil), allConstraints[:]...) }

// ErrNotConstructible is returned (wrapped) by Build when no graph
// satisfying the constraint exists for the pair (n,k). Match it with
// errors.Is.
var ErrNotConstructible = core.ErrNotConstructible

// Properties selects which LHG properties Verify computes; combine the
// Prop* constants with |. The zero value means all of them.
type Properties = check.Properties

// Property selectors for Verify's WithProperties option.
const (
	// PropNodeConnectivity computes the exact κ(G) and P1 (κ >= k).
	PropNodeConnectivity = check.PropNodeConnectivity
	// PropLinkConnectivity computes the exact λ(G) and P2 (λ >= k).
	PropLinkConnectivity = check.PropLinkConnectivity
	// PropLinkMinimality sweeps every edge for P3 (implies P1 and P2).
	PropLinkMinimality = check.PropLinkMinimality
	// PropDiameter runs the distance sweep for P4 and the avg path length.
	PropDiameter = check.PropDiameter
	// PropRestrictedEdge computes the restricted edge connectivity λ′(G)
	// (smallest cut that disconnects without isolating a node; -1 when
	// undefined). Opt-in: not part of PropAll.
	PropRestrictedEdge = check.PropRestrictedEdge
	// PropSuperEdge decides super edge connectivity — every minimum edge
	// cut isolates a single node (implies P2 and PropRestrictedEdge).
	// Opt-in: not part of PropAll.
	PropSuperEdge = check.PropSuperEdge
	// PropAll selects every classic property — the full report.
	PropAll = check.PropAll
)

// options collects the knobs of the context-first entrypoints. Each
// entrypoint reads the subset that applies to it and ignores the rest, so
// a caller can build one option list and reuse it across Build, Verify
// and Flood.
type options struct {
	workers  int
	seed     uint64
	hasSeed  bool
	failures Failures
	props    Properties
}

// Option configures Build, Verify or Flood. Options are applied in order;
// later options win.
type Option func(*options)

// WithWorkers sets the goroutine budget for the probe fan-out of Verify
// (and IsLHG). n <= 0 means GOMAXPROCS — the default — and 1 forces the
// serial path. The result is deterministic regardless of the budget.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithSeed makes Build sample a random (seeded, reproducible) witness of
// the constraint instead of the canonical graph. Only the K-TREE and
// K-DIAMOND constraints admit variants; Build returns an error for the
// others. The same seed always yields the same graph.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed, o.hasSeed = seed, true }
}

// WithFailures sets the fault environment — crashed nodes and failed
// links — of a Flood run. The default is the failure-free environment.
func WithFailures(f Failures) Option { return func(o *options) { o.failures = f } }

// WithProperties restricts Verify to a subset of the LHG properties. The
// default (PropAll) computes the full report; a restricted run skips the
// phases the selection does not need — e.g. WithProperties(PropDiameter)
// never issues a max-flow probe.
func WithProperties(p Properties) Option { return func(o *options) { o.props = p } }

func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Build constructs a graph of the given constraint for the pair (n,k):
// the canonical graph by default, or a seeded random witness under
// WithSeed (K-TREE and K-DIAMOND only). ctx cancellation is honored
// between construction stages; Build never returns a partial graph.
func Build(ctx context.Context, c Constraint, n, k int, opts ...Option) (*Graph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := trace.StartRoot(ctx, "lhg.Build")
	if sp.Live() {
		sp.SetAttr(trace.Str("constraint", c.String()))
		sp.SetAttr(trace.Int("n", int64(n)))
		sp.SetAttr(trace.Int("k", int64(k)))
	}
	defer sp.End()
	o := applyOptions(opts)
	if o.hasSeed {
		return buildVariant(c, n, k, o.seed)
	}
	g, err := buildCanonical(c, n, k)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

func buildCanonical(c Constraint, n, k int) (*Graph, error) {
	switch c {
	case Harary:
		return harary.Build(n, k)
	case JD:
		jd, err := core.BuildJD(n, k)
		if err != nil {
			return nil, err
		}
		return jd.Real.Graph, nil
	case KTree:
		kt, err := core.BuildKTree(n, k)
		if err != nil {
			return nil, err
		}
		return kt.Real.Graph, nil
	case KDiamond:
		kd, err := core.BuildKDiamond(n, k)
		if err != nil {
			return nil, err
		}
		return kd.Real.Graph, nil
	default:
		return nil, fmt.Errorf("lhg: unknown constraint %v", c)
	}
}

func buildVariant(c Constraint, n, k int, seed uint64) (*Graph, error) {
	rng := sim.NewRNG(seed)
	switch c {
	case KTree:
		kt, err := core.BuildKTreeVariant(n, k, rng)
		if err != nil {
			return nil, err
		}
		return kt.Real.Graph, nil
	case KDiamond:
		kd, err := core.BuildKDiamondVariant(n, k, rng)
		if err != nil {
			return nil, err
		}
		return kd.Real.Graph, nil
	default:
		return nil, fmt.Errorf("lhg: constraint %v has no variant builder (use ktree or kdiamond)", c)
	}
}

// Labeled builds the graph together with human-readable node labels
// (R<i> root copies, N<p>.<i> internal copies, L<p> shared leaves,
// U<p>.<i> unshared clique members) for DOT rendering. The Harary baseline
// has no tree structure, so its labels are the numeric ids.
func Labeled(c Constraint, n, k int) (*Graph, map[int]string, error) {
	switch c {
	case Harary:
		g, err := harary.Build(n, k)
		return g, nil, err
	case JD:
		jd, err := core.BuildJD(n, k)
		if err != nil {
			return nil, nil, err
		}
		return jd.Real.Graph, jd.Real.Labels, nil
	case KTree:
		kt, err := core.BuildKTree(n, k)
		if err != nil {
			return nil, nil, err
		}
		return kt.Real.Graph, kt.Real.Labels, nil
	case KDiamond:
		kd, err := core.BuildKDiamond(n, k)
		if err != nil {
			return nil, nil, err
		}
		return kd.Real.Graph, kd.Real.Labels, nil
	default:
		return nil, nil, fmt.Errorf("lhg: unknown constraint %v", c)
	}
}

// Exists is the characteristic function EX_Π(n,k): whether a graph
// satisfying the constraint exists for the pair. For K-TREE and K-DIAMOND
// this is the closed form n >= 2k proved by Theorems 2 and 5; for JD it is
// decided by the decomposition search; Harary exists for every 2 <= k < n.
func Exists(c Constraint, n, k int) bool {
	switch c {
	case Harary:
		return k >= 2 && n > k
	case JD:
		return core.ExistsJD(n, k)
	case KTree:
		return core.ExistsKTree(n, k)
	case KDiamond:
		return core.ExistsKDiamond(n, k)
	default:
		return false
	}
}

// Regular is the characteristic function REG_Π(n,k): whether a k-regular
// graph satisfying the constraint exists for the pair (Theorems 3 and 6).
// Harary graphs are k-regular iff k·n is even.
func Regular(c Constraint, n, k int) bool {
	switch c {
	case Harary:
		return Exists(c, n, k) && (k*n)%2 == 0
	case JD:
		return core.RegularJD(n, k)
	case KTree:
		return core.RegularKTree(n, k)
	case KDiamond:
		return core.RegularKDiamond(n, k)
	default:
		return false
	}
}

// Verify proves or refutes the LHG properties of g for target k, exactly
// (max-flow based). By default it computes the full report with the
// independent probes fanned across GOMAXPROCS goroutines; WithWorkers
// adjusts the budget and WithProperties restricts the run to a subset of
// the properties. The report is deterministic — identical values and the
// same P3 witness edge regardless of the worker count.
//
// Cancellation is honored between phases, between max-flow probes and —
// inside each probe — between augmenting-path iterations, so canceling
// ctx (or letting its deadline fire) stops even a verification dominated
// by one long max-flow campaign promptly, with every worker goroutine
// joined and the internal pools left reusable. A canceled run returns
// ctx.Err().
func Verify(ctx context.Context, g *Graph, k int, opts ...Option) (*Report, error) {
	ctx, sp := trace.StartRoot(ctx, "lhg.Verify")
	if sp.Live() {
		sp.SetAttr(trace.Int("n", int64(g.Order())))
		sp.SetAttr(trace.Int("k", int64(k)))
	}
	defer sp.End()
	o := applyOptions(opts)
	return check.Verify(ctx, g, k, check.Options{
		Workers: o.workers,
		Props:   o.props,
	})
}

// Screen runs the scale screen, the verification tier for instances too
// large for the all-sources distance sweep (n ~ 10^6). It computes the
// exact κ and λ, as Verify does, and confirms or refutes P1 and P2 from
// them. It skips P3 and answers P4 from one BFS with a three-valued
// verdict: refuted, confirmed, or screened (2·ecc(0) exceeds the bound
// but ecc(0) does not). WithWorkers sets the goroutine budget of the κ
// and λ sweeps, as in Verify; other options are ignored. See
// check.Screen.
func Screen(ctx context.Context, g *Graph, k int, opts ...Option) (*ScreenReport, error) {
	ctx, sp := trace.StartRoot(ctx, "lhg.Screen")
	if sp.Live() {
		sp.SetAttr(trace.Int("n", int64(g.Order())))
		sp.SetAttr(trace.Int("k", int64(k)))
	}
	defer sp.End()
	return check.Screen(ctx, g, k, applyOptions(opts).workers)
}

// DeltaVerifier carries verification state across a churn stream: the
// current graph and its full report. Advance re-verifies after an edge
// delta with a handful of localized max-flow probes when possible, falling
// back to the full campaign otherwise — the report is bit-identical to a
// fresh Verify either way. Not safe for concurrent use.
type DeltaVerifier = check.DeltaVerifier

// NewDeltaVerifier runs one full verification of g against target k and
// arms the incremental re-verification state. Of the options, WithWorkers
// and WithProperties apply (as in Verify); note that property-selected runs
// always take the full-campaign path on Advance.
func NewDeltaVerifier(ctx context.Context, g *Graph, k int, opts ...Option) (*DeltaVerifier, error) {
	ctx, sp := trace.StartRoot(ctx, "lhg.NewDeltaVerifier")
	defer sp.End()
	o := applyOptions(opts)
	return check.NewDeltaVerifier(ctx, g, k, check.Options{
		Workers: o.workers,
		Props:   o.props,
	})
}

// IsLHG reports whether g holds the four mandatory LHG properties for
// target k: the verdict of Verify(ctx, g, k, opts...).IsLHG(), the same
// exact check behind lhcheck and /v1/verify. P3 is the paper's "removing
// any single link reduces node or link connectivity", measured against
// g's own κ and λ. Of the options only WithWorkers applies: IsLHG always
// checks all four properties. Cancellation is honored as in Verify and
// surfaces as ctx.Err().
func IsLHG(ctx context.Context, g *Graph, k int, opts ...Option) (bool, error) {
	ctx, sp := trace.StartRoot(ctx, "lhg.IsLHG")
	defer sp.End()
	o := applyOptions(opts)
	r, err := check.Verify(ctx, g, k, check.Options{Workers: o.workers, Props: check.PropAll})
	if err != nil {
		return false, err
	}
	return r.IsLHG(), nil
}

// Flood runs a round-synchronous flood from source, by default in the
// failure-free environment; inject crashed nodes and failed links with
// WithFailures. Cancellation is polled once per round and surfaces as
// ctx.Err().
func Flood(ctx context.Context, g *Graph, source int, opts ...Option) (*FloodResult, error) {
	ctx, sp := trace.StartRoot(ctx, "lhg.Flood")
	if sp.Live() {
		sp.SetAttr(trace.Int("n", int64(g.Order())))
		sp.SetAttr(trace.Int("source", int64(source)))
	}
	defer sp.End()
	o := applyOptions(opts)
	return flood.RunCtx(ctx, g, source, o.failures)
}

// Retry-amplification budgets: the static analyzer that prices the f ≤ k−1
// delivery guarantee under a reliable-flood retry policy — worst-case
// amplification and latency over the k disjoint path families, the
// enforceable per-broadcast frame ceiling, and the runtime guard plan
// (hop/retry budgets, retransmit token bucket, diversity gate) derived
// from it. See internal/ampguard and `floodsim -budget`.
type (
	// RetryPolicy is the per-edge retry policy being priced (timeout,
	// backoff series, retry count, jitter).
	RetryPolicy = ampguard.Policy
	// BudgetReport is the full analysis of one (topology, source, policy).
	BudgetReport = ampguard.Report
	// StormGuard is the runtime enforcement plan a BudgetReport derives.
	StormGuard = ampguard.Guard
)

// DefaultRetryPolicy returns the reliable protocol's default retry policy
// — the one a plain reliable cluster runs with.
func DefaultRetryPolicy() RetryPolicy { return ampguard.DefaultPolicy() }

// FloodBudget statically prices flooding g from source under the given
// retry policy: for every target it enumerates a maximum family of
// internally vertex-disjoint paths (the structure k-connectivity
// guarantees) and reports worst-case retry amplification, delivery latency
// and the enforceable frame ceiling. k is the design connectivity recorded
// in the report. Cancellation is polled between pairs and surfaces as
// ctx.Err().
func FloodBudget(ctx context.Context, g *Graph, source, k int, policy RetryPolicy) (*BudgetReport, error) {
	return ampguard.Analyze(ctx, g, source, k, policy)
}

// Incremental maintenance: the constructive procedures inside the proofs
// of Theorems 2 and 5, run as one churn engine. Grow admits one node and
// Shrink retires the youngest by the inverse surgery, each with O(k²) edge
// churn (independent of n); Apply merges a batch of both into one net edge
// delta. The topology satisfies every LHG property after every single step.
type (
	// Reconfigurer is the churn engine of both constructions, returned by
	// NewKTreeGrowerAt and NewKDiamondGrowerAt. It is an alias of the one
	// engine type, not an interface: the separate lhgbench module declares
	// fields of this type, so the name stays.
	Reconfigurer = *core.Grower
	// EdgeDelta is the edge surgery performed by one step or batch.
	EdgeDelta = core.EdgeDelta
	// Change is one membership event in a batch (ChangeJoin/ChangeLeave).
	Change = core.Change
)

// Batch change kinds.
const (
	ChangeJoin  = core.ChangeJoin
	ChangeLeave = core.ChangeLeave
)

// NewKTreeGrowerAt starts a K-TREE churn engine at n nodes (n >= 2k).
func NewKTreeGrowerAt(k, n int) (Reconfigurer, error) { return core.NewKTreeGrowerAt(k, n) }

// NewKDiamondGrowerAt starts a K-DIAMOND churn engine at n nodes (n >= 2k).
func NewKDiamondGrowerAt(k, n int) (Reconfigurer, error) { return core.NewKDiamondGrowerAt(k, n) }

// Router answers point-to-point routing queries from blueprint metadata
// alone (no search, no routing tables): tree paths within a copy, junction
// leaves across copies. Routes are bounded by 3·height(T)+3 hops — the
// Lemma 3 diameter argument as an algorithm.
type Router = core.Router

// BuildRouted constructs the canonical K-TREE or K-DIAMOND graph together
// with its structured router. The Harary and JD constraints are not
// supported (Harary has no tree structure; use KTree or KDiamond).
func BuildRouted(c Constraint, n, k int) (*Graph, *Router, error) {
	switch c {
	case KTree:
		kt, err := core.BuildKTree(n, k)
		if err != nil {
			return nil, nil, err
		}
		r, err := core.NewRouter(kt.Blue, kt.Real)
		if err != nil {
			return nil, nil, err
		}
		return kt.Real.Graph, r, nil
	case KDiamond:
		kd, err := core.BuildKDiamond(n, k)
		if err != nil {
			return nil, nil, err
		}
		r, err := core.NewRouter(kd.Blue, kd.Real)
		if err != nil {
			return nil, nil, err
		}
		return kd.Real.Graph, r, nil
	default:
		return nil, nil, fmt.Errorf("lhg: constraint %v has no structured router (use ktree or kdiamond)", c)
	}
}

// Overlay is a dynamic-membership topology manager (canonical rebuild per
// change, churn accounting). See also NewKTreeGrowerAt/NewKDiamondGrowerAt
// for the O(k²)-churn incremental alternative.
type Overlay = overlay.Overlay

// Membership is the self-healing membership service: view changes flooded
// over the current topology, crash windows, repair.
type Membership = member.System

// NewOverlay creates a rebuild-based overlay of `initial` members using the
// given constraint's canonical construction.
func NewOverlay(c Constraint, k, initial int) (*Overlay, error) {
	return overlay.New(k, initial, topologyFunc(c))
}

// NewMembership creates a self-healing membership service of `initial`
// members maintained by the given constraint's churn engine. Only the
// engine-backed constraints (KTree, KDiamond) are supported: membership
// repair is delta surgery, which Harary and JD cannot provide.
func NewMembership(c Constraint, k, initial int) (*Membership, error) {
	engine, err := engineFunc(c)
	if err != nil {
		return nil, err
	}
	return member.New(k, initial, engine)
}

func engineFunc(c Constraint) (member.EngineFunc, error) {
	switch c {
	case KTree:
		return core.NewKTreeGrowerAt, nil
	case KDiamond:
		return core.NewKDiamondGrowerAt, nil
	default:
		return nil, fmt.Errorf("lhg: constraint %v has no churn engine (use ktree or kdiamond)", c)
	}
}

func topologyFunc(c Constraint) func(n, k int) (*Graph, error) {
	return func(n, k int) (*Graph, error) { return buildCanonical(c, n, k) }
}

// Observability. The library carries an always-compiled metrics layer
// (counters, gauges, histograms) over every hot path: verification runs
// and probe counts, max-flow augmenting paths, scratch/network pool
// recycling, flood messages/duplicates/latency, and socket-cluster
// traffic. The sink is off by default and costs one atomic load per
// update; EnableMetrics turns it on process-wide. Phase times are not
// metrics: they are Report.Phases and the phase spans of a trace.

// EnableMetrics turns the metrics sink on: instrumented code starts
// accumulating counters, gauges and histograms.
func EnableMetrics() { obs.Enable() }

// DisableMetrics turns the metrics sink off. Accumulated values are kept
// until ResetMetrics.
func DisableMetrics() { obs.Disable() }

// MetricsEnabled reports whether the sink is collecting.
func MetricsEnabled() bool { return obs.Enabled() }

// ResetMetrics zeroes every metric (the handles stay valid).
func ResetMetrics() { obs.Reset() }

// MetricsCounters returns a snapshot of all counter values by metric name
// — the convenient shape for tests and programmatic diffing.
func MetricsCounters() map[string]int64 { return obs.Counters() }

// WriteMetricsJSON dumps the full metrics snapshot (counters, gauges,
// histograms, run metadata) as indented JSON.
func WriteMetricsJSON(w io.Writer) error { return obs.WriteJSON(w) }

// WriteMetricsPrometheus renders the metrics in the Prometheus text
// exposition format.
func WriteMetricsPrometheus(w io.Writer) error { return obs.WritePrometheus(w) }

// MetricsHandler returns the debug HTTP mux the CLIs serve under -http:
// /debug/vars (expvar), /metrics (Prometheus), /debug/trace (Chrome
// trace_event export) and /debug/pprof/.
func MetricsHandler() http.Handler { return obs.DebugHandler() }

// Tracing. Alongside the metrics layer, the library carries a
// request-scoped tracing layer: Build, Verify, Flood and the delta
// entrypoints mint a root span; verification phases, per-worker probe
// batches, delta fast-path decisions and netflood rounds record child
// spans and point events into a fixed-size lock-striped flight recorder.
// Off by default at one atomic load and zero allocations per would-be
// span; EnableTracing turns it on process-wide.

// EnableTracing turns the span recorder on: the facade entrypoints start
// minting trace ids and the instrumented layers record spans.
func EnableTracing() { trace.Enable() }

// DisableTracing turns the span recorder off. Recorded spans are kept
// until ResetTrace.
func DisableTracing() { trace.Disable() }

// TracingEnabled reports whether spans are being recorded.
func TracingEnabled() bool { return trace.Enabled() }

// ResetTrace clears the flight recorder.
func ResetTrace() { trace.Reset() }

// WriteTraceJSON dumps the flight recorder in the Chrome trace_event JSON
// format (load in chrome://tracing or Perfetto).
func WriteTraceJSON(w io.Writer) error {
	return trace.WriteChromeTrace(w, trace.Snapshot())
}
