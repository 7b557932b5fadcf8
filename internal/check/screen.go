package check

import (
	"context"
	"fmt"
	"strings"

	"lhg/internal/flow"
	"lhg/internal/graph"
	"lhg/internal/obs"
)

// Screen is the scale tier of the verifier: a certified screen for
// instances too large for the exact campaign (n ~ 10^6, where the exact
// κ sweep alone is ~n max-flow probes). It never guesses — every verdict
// it returns is one of three honest states:
//
//   - ScreenRefuted: an exact witness was found (a real cut below k, a
//     bridge, an eccentricity above the bound). The property FAILS.
//   - ScreenConfirmed: a sufficient exact check passed (2-connectivity via
//     cutpoints when k == 2, 2·ecc(source) within the diameter bound).
//     The property HOLDS.
//   - ScreenScreened: every linear check, every Monte Carlo contraction
//     round, and every sampled exact probe passed, but the property was
//     not exhaustively verified. "No counterexample found", not "proven".
//
// The phases mirror Verify: a linear pass (degrees, connectivity,
// cutpoints — exact, O(n+m)), the seeded Karger prescreen (certified
// candidate cuts, O(m log n)), and a confirm pass of exact max-flow probes
// (the candidate cut's bipartition plus deterministically sampled pairs)
// on the shared flow arena.
var (
	mScreenRuns         = obs.NewCounter("check.screen.runs")
	mScreenRefuted      = obs.NewCounter("check.screen.refuted")
	tPhaseScreenLinear  = obs.NewTimer("check.screen.phase.linear")
	tPhaseScreenKarger  = obs.NewTimer("check.screen.phase.prescreen")
	tPhaseScreenConfirm = obs.NewTimer("check.screen.phase.confirm")
)

// ScreenVerdict is the three-valued outcome of one screened property.
type ScreenVerdict uint8

const (
	// ScreenRefuted means an exact counterexample witness was found.
	ScreenRefuted ScreenVerdict = iota
	// ScreenScreened means every sampled and randomized check passed but
	// the property was not exhaustively verified.
	ScreenScreened
	// ScreenConfirmed means a sufficient exact check proved the property.
	ScreenConfirmed
)

func (v ScreenVerdict) String() string {
	switch v {
	case ScreenRefuted:
		return "refuted"
	case ScreenScreened:
		return "screened"
	case ScreenConfirmed:
		return "confirmed"
	}
	return "screen(?)"
}

// ScreenOptions configures a screen run.
type ScreenOptions struct {
	// SamplePairs is the number of deterministically sampled exact pair
	// probes in the confirm phase; <= 0 means the default (16).
	SamplePairs int
}

const defaultScreenSamples = 16

// ScreenReport is the outcome of one screen run. Unlike Report, the
// connectivity fields are verdicts, not exact values: the screen's
// contract is "refute exactly or confirm/screen honestly", never an
// unqualified number it did not compute.
type ScreenReport struct {
	N, M, K int

	MinDegree int
	MaxDegree int
	Regular   bool // exact: every degree equals K
	Connected bool // exact

	// CutUpper is the smallest certified edge cut seen (the trivial star
	// cut, a Karger contraction cut, or a refuting pair probe): λ ≤
	// CutUpper always holds. CutUpper < K is an exact P2 refutation.
	CutUpper int
	// PairProbes is the number of exact max-flow pair probes the confirm
	// phase ran.
	PairProbes int

	// NodeConn, LinkConn are the P1/P2 verdicts at level K.
	NodeConn ScreenVerdict
	LinkConn ScreenVerdict
	// Diameter is the P4 verdict against DiameterBound(N, K); EccSource
	// is the exact eccentricity of node 0 (ecc ≤ diameter ≤ 2·ecc).
	Diameter      ScreenVerdict
	DiameterBound int
	EccSource     int

	// Phases is the per-phase wall-time/probe breakdown, as in Report.
	Phases []PhaseTiming
}

// OK reports whether no property was refuted (everything at least
// screened).
func (r *ScreenReport) OK() bool {
	return r.NodeConn != ScreenRefuted && r.LinkConn != ScreenRefuted &&
		r.Diameter != ScreenRefuted
}

func (r *ScreenReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "screen n=%d m=%d k=%d: κ≥k %s, λ≥k %s (cut≤%d), diam≤%d %s",
		r.N, r.M, r.K, r.NodeConn, r.LinkConn, r.CutUpper, r.DiameterBound, r.Diameter)
	return b.String()
}

// Screen screens g against the LHG property set at level k under ctx. See
// the package comment above for the exact/screened semantics of the
// verdicts.
func Screen(ctx context.Context, g *graph.Graph, k int, opt ScreenOptions) (*ScreenReport, error) {
	n := g.Order()
	if k < 1 {
		return nil, fmt.Errorf("check: screen connectivity target k=%d must be >= 1", k)
	}
	if n <= k {
		return nil, fmt.Errorf("check: screen k=%d must be < n=%d", k, n)
	}
	samples := opt.SamplePairs
	if samples <= 0 {
		samples = defaultScreenSamples
	}
	mScreenRuns.Inc()
	r := &ScreenReport{N: n, M: g.Size(), K: k, DiameterBound: DiameterBound(n, k)}

	ph := phaseRunner{ctx: ctx, spanPrefix: "check.screen.", phases: &r.Phases}

	// Linear pass: exact O(n+m) facts. Degrees bound both connectivities
	// (κ ≤ λ ≤ δ), one BFS decides connectedness and ecc(0), and the
	// cutpoint DFS decides 2-connectivity exactly — which refutes any
	// k ≥ 2 and confirms k == 2 outright.
	var bridges int
	var articulations int
	if err := ph.run("linear", tPhaseScreenLinear, func(context.Context) error {
		r.MinDegree, _ = g.MinDegree()
		r.MaxDegree, _ = g.MaxDegree()
		r.Regular = g.IsRegular(k)
		r.CutUpper = r.MinDegree // the star of a min-degree node is a real cut
		ecc, whole := g.Eccentricity(0)
		r.EccSource = ecc
		r.Connected = whole
		if r.Connected && k >= 2 {
			articulations = len(g.ArticulationPoints())
			bridges = len(g.Bridges())
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Seed the verdicts from the linear facts.
	r.NodeConn, r.LinkConn = ScreenScreened, ScreenScreened
	switch {
	case !r.Connected:
		r.NodeConn, r.LinkConn = ScreenRefuted, ScreenRefuted
		r.CutUpper = 0
	case r.MinDegree < k:
		// κ ≤ λ ≤ δ < k: both refuted by the degree witness.
		r.NodeConn, r.LinkConn = ScreenRefuted, ScreenRefuted
	case k == 1:
		// Connected is exactly κ ≥ 1 and λ ≥ 1.
		r.NodeConn, r.LinkConn = ScreenConfirmed, ScreenConfirmed
	case k == 2:
		// The cutpoint DFS is exact for 2-connectivity.
		if articulations > 0 {
			r.NodeConn = ScreenRefuted
		} else {
			r.NodeConn = ScreenConfirmed
		}
		if bridges > 0 {
			r.LinkConn = ScreenRefuted
		} else {
			r.LinkConn = ScreenConfirmed
		}
	default:
		// k >= 3: an articulation point (bridge) still refutes exactly.
		if articulations > 0 {
			r.NodeConn = ScreenRefuted
		}
		if bridges > 0 {
			r.LinkConn = ScreenRefuted
		}
	}

	// Diameter: ecc(0) ≤ diameter ≤ 2·ecc(0), both sides exact.
	switch {
	case !r.Connected || r.EccSource > r.DiameterBound:
		r.Diameter = ScreenRefuted
	case 2*r.EccSource <= r.DiameterBound:
		r.Diameter = ScreenConfirmed
	default:
		r.Diameter = ScreenScreened
	}

	// Monte Carlo prescreen: certified candidate cuts. A contraction cut
	// below k is a real cut of g — an exact P2 refutation, no confirm
	// probe needed.
	var hints flow.SweepHints
	needCuts := r.Connected && r.LinkConn == ScreenScreened
	if needCuts {
		if err := ph.run("prescreen", tPhaseScreenKarger, func(pctx context.Context) error {
			hints = prescreenHints(g)
			return pctx.Err()
		}); err != nil {
			return nil, err
		}
		if hints.Upper < r.CutUpper {
			r.CutUpper = hints.Upper
		}
		if r.CutUpper < k {
			r.LinkConn = ScreenRefuted
		}
	}

	// Confirm pass: exact max-flow probes on the shared arena. The sampled
	// pairs walk a deterministic splitmix64 stream, so a screen run is a
	// pure function of (graph, k, samples). Any probe whose cut lands
	// below k is an exact refutation (an s-t cut is a cut of g); probes
	// at or above k raise confidence but cannot confirm a global
	// property, so passing verdicts stay ScreenScreened.
	if r.Connected && (r.LinkConn == ScreenScreened || r.NodeConn == ScreenScreened) {
		if err := ph.run("confirm", tPhaseScreenConfirm, func(pctx context.Context) error {
			rng := uint64(prescreenSeed) ^ uint64(n)<<20 ^ uint64(r.M)
			for i := 0; i < samples; i++ {
				if err := pctx.Err(); err != nil {
					return err
				}
				s := int(splitmix64(&rng) % uint64(n))
				t := int(splitmix64(&rng) % uint64(n))
				if s == t {
					continue
				}
				r.PairProbes++
				if r.LinkConn == ScreenScreened {
					cut, err := flow.EdgeCut(g, s, t)
					if err != nil {
						return err
					}
					if cut < r.CutUpper {
						r.CutUpper = cut
					}
					if cut < k {
						r.LinkConn = ScreenRefuted
					}
				}
				if r.NodeConn == ScreenScreened && !g.HasEdge(s, t) {
					cut, err := flow.VertexCut(g, s, t)
					if err != nil {
						return err
					}
					if cut < k {
						r.NodeConn = ScreenRefuted
					}
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	if !r.OK() {
		mScreenRefuted.Inc()
	}
	return r, ctx.Err()
}
