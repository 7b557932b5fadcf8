package check

import (
	"context"
	"fmt"

	"lhg/internal/graph"
	"lhg/internal/obs"
)

// Screen is the scale tier of the verifier, for instances (n ~ 10^6) where
// the all-sources distance sweep of P4 is out of reach. P1 and P2 are
// exact: the screen runs the same κ and λ sweeps as Verify, so it reports
// κ(G) and λ(G) and confirms or refutes each property. It skips P3, and it
// answers P4 from one BFS: ecc(0) <= diameter <= 2·ecc(0), both exact, so
// the P4 verdict is one of three honest states:
//
//   - ScreenRefuted: ecc(0) exceeds the bound, or g is disconnected.
//   - ScreenConfirmed: 2·ecc(0) is within the bound.
//   - ScreenScreened: neither — "no counterexample found", not "proven".
//
// The phases: a linear pass (degrees, connectedness, ecc(0), O(n+m)), then
// the exact "kappa" and "lambda" sweeps.
var (
	mScreenRuns    = obs.NewCounter("check.screen.runs")
	mScreenRefuted = obs.NewCounter("check.screen.refuted")
)

// ScreenVerdict is the outcome of one screened property. P1 and P2 are
// always refuted or confirmed; only P4 can be screened.
type ScreenVerdict uint8

const (
	// ScreenRefuted means the property fails.
	ScreenRefuted ScreenVerdict = iota
	// ScreenScreened means the linear P4 check passed but did not prove
	// the bound.
	ScreenScreened
	// ScreenConfirmed means the property holds.
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

// ScreenReport is the outcome of one screen run.
type ScreenReport struct {
	N, M, K int

	MinDegree int
	MaxDegree int
	Regular   bool // every degree equals K
	Connected bool

	NodeConnectivity int // exact κ(G)
	EdgeConnectivity int // exact λ(G)

	// NodeConn, LinkConn are the P1/P2 verdicts at level K: confirmed
	// when κ (λ) >= K, refuted otherwise.
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

// OK reports whether no property was refuted.
func (r *ScreenReport) OK() bool {
	return r.NodeConn != ScreenRefuted && r.LinkConn != ScreenRefuted &&
		r.Diameter != ScreenRefuted
}

func (r *ScreenReport) String() string {
	return fmt.Sprintf("screen n=%d m=%d k=%d: κ=%d %s, λ=%d %s, diam≤%d %s",
		r.N, r.M, r.K, r.NodeConnectivity, r.NodeConn, r.EdgeConnectivity, r.LinkConn,
		r.DiameterBound, r.Diameter)
}

// Screen screens g against the LHG property set at level k under ctx, with
// the κ and λ probes fanned across workers goroutines (<= 0 means
// GOMAXPROCS, 1 runs serially). See the comment above for what each
// verdict means.
func Screen(ctx context.Context, g *graph.Graph, k, workers int) (*ScreenReport, error) {
	n := g.Order()
	if k < 1 {
		return nil, fmt.Errorf("check: screen connectivity target k=%d must be >= 1", k)
	}
	if n <= k {
		return nil, fmt.Errorf("check: screen k=%d must be < n=%d", k, n)
	}
	workers = graph.ClampWorkers(workers, 0)
	mScreenRuns.Inc()
	r := &ScreenReport{N: n, M: g.Size(), K: k, DiameterBound: DiameterBound(n, k)}

	ph := phaseRunner{ctx: ctx, spanPrefix: "check.screen.", phases: &r.Phases}

	if err := ph.run("linear", func(context.Context) error {
		r.MinDegree, _ = g.MinDegree()
		r.MaxDegree, _ = g.MaxDegree()
		r.Regular = g.IsRegular(k)
		r.EccSource, r.Connected = g.Eccentricity(0)
		return nil
	}); err != nil {
		return nil, err
	}

	var err error
	r.NodeConnectivity, r.EdgeConnectivity, err = ph.connectivity(g, workers,
		PropNodeConnectivity|PropLinkConnectivity)
	if err != nil {
		return nil, err
	}
	r.NodeConn = verdict(r.NodeConnectivity >= k)
	r.LinkConn = verdict(r.EdgeConnectivity >= k)

	switch {
	case !r.Connected || r.EccSource > r.DiameterBound:
		r.Diameter = ScreenRefuted
	case 2*r.EccSource <= r.DiameterBound:
		r.Diameter = ScreenConfirmed
	default:
		r.Diameter = ScreenScreened
	}

	if !r.OK() {
		mScreenRefuted.Inc()
	}
	return r, nil
}

// verdict maps an exact answer to confirmed or refuted.
func verdict(holds bool) ScreenVerdict {
	if holds {
		return ScreenConfirmed
	}
	return ScreenRefuted
}
