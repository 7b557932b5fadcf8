package check

import "strings"

// Properties is a bitmask selecting which LHG properties a verification
// run computes. The zero value means "all of them" — the full report —
// so existing callers and the zero Options keep the historical behavior.
//
// Selecting a subset skips whole phases: a P4-only run never issues a
// max-flow probe, and a P1|P2-only run skips the all-sources BFS sweep.
// P5 (regularity) rides along for free — it is a degree scan — and is
// always reported.
type Properties uint8

const (
	// PropNodeConnectivity computes the exact κ(G) and P1 (κ >= k).
	PropNodeConnectivity Properties = 1 << iota
	// PropLinkConnectivity computes the exact λ(G) and P2 (λ >= k).
	PropLinkConnectivity
	// PropLinkMinimality sweeps every edge for P3. It needs κ and λ, so
	// selecting it pulls in PropNodeConnectivity and PropLinkConnectivity.
	PropLinkMinimality
	// PropDiameter runs the all-sources distance sweep for P4 and the
	// average path length.
	PropDiameter
	// PropRestrictedEdge computes the restricted edge connectivity λ′(G):
	// the smallest edge cut that disconnects G without isolating a node
	// (-1 when undefined). Opt-in — it is NOT part of PropAll, so default
	// reports are unchanged.
	PropRestrictedEdge
	// PropSuperEdge decides super edge connectivity: every minimum edge
	// cut isolates a single node. It needs λ and λ′, so selecting it pulls
	// in PropLinkConnectivity and PropRestrictedEdge. Opt-in like
	// PropRestrictedEdge.
	PropSuperEdge
)

// PropAll selects every classic property — the full report. The extended
// fault-tolerance measures (PropRestrictedEdge, PropSuperEdge) are opt-in
// additions on top, so the zero Options keeps the historical report shape.
const PropAll = PropNodeConnectivity | PropLinkConnectivity | PropLinkMinimality | PropDiameter

// Has reports whether every property in q is selected in p.
func (p Properties) Has(q Properties) bool { return p&q == q }

// normalized resolves the zero value to PropAll and adds the connectivity
// prerequisites of the minimality sweep and the super-edge decision.
func (p Properties) normalized() Properties {
	if p == 0 {
		return PropAll
	}
	if p.Has(PropLinkMinimality) {
		p |= PropNodeConnectivity | PropLinkConnectivity
	}
	if p.Has(PropSuperEdge) {
		p |= PropRestrictedEdge | PropLinkConnectivity
	}
	return p
}

// String renders the selection as "P1|P2|P3|P4" (or "none").
func (p Properties) String() string {
	var parts []string
	if p.Has(PropNodeConnectivity) {
		parts = append(parts, "P1")
	}
	if p.Has(PropLinkConnectivity) {
		parts = append(parts, "P2")
	}
	if p.Has(PropLinkMinimality) {
		parts = append(parts, "P3")
	}
	if p.Has(PropDiameter) {
		parts = append(parts, "P4")
	}
	if p.Has(PropRestrictedEdge) {
		parts = append(parts, "P2r")
	}
	if p.Has(PropSuperEdge) {
		parts = append(parts, "P2s")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Sparsify selects the sparse-certificate policy for the κ/λ probe phases
// (see sparseProbeView). The zero value is the automatic fast path, so the
// zero Options keeps sparsification on by default.
type Sparsify uint8

const (
	// SparsifyAuto probes a Nagamochi–Ibaraki certificate instead of the
	// full edge set whenever the graph is dense enough for the certificate
	// to pay for itself (m > SparsifyCutoff·k·n and the certificate is
	// strictly smaller than the graph). This is the default.
	SparsifyAuto Sparsify = iota
	// SparsifyOff always probes the full edge set — the reference side of
	// the differential tests and of the full-vs-sparsified benchmark.
	SparsifyOff
	// SparsifyAlways probes the certificate regardless of density. Meant
	// for tests that must exercise the sparsified path on small inputs;
	// production callers should stay on SparsifyAuto.
	SparsifyAlways
)

func (s Sparsify) String() string {
	switch s {
	case SparsifyAuto:
		return "auto"
	case SparsifyOff:
		return "off"
	case SparsifyAlways:
		return "always"
	}
	return "sparsify(?)"
}

// Prescreen selects the Monte Carlo cut-prescreen policy for the κ/λ probe
// phases (see prescreenHints): seeded Karger contraction rounds that find
// real (certified) small cuts before the exact sweeps run. The prescreen
// only tightens early-exit limits and reorders probes — the values and
// verdicts it feeds into stay exact — so, like Sparsify, it never changes
// any reported field.
type Prescreen uint8

const (
	// PrescreenAuto runs the contraction rounds when the graph is large
	// enough for them to pay for themselves (n >= PrescreenCutoff). This is
	// the default.
	PrescreenAuto Prescreen = iota
	// PrescreenOff skips the prescreen — the reference side of the
	// differential tests.
	PrescreenOff
	// PrescreenAlways runs the contraction rounds regardless of size. Meant
	// for tests that must exercise the prescreened path on small inputs.
	PrescreenAlways
)

func (p Prescreen) String() string {
	switch p {
	case PrescreenAuto:
		return "auto"
	case PrescreenOff:
		return "off"
	case PrescreenAlways:
		return "always"
	}
	return "prescreen(?)"
}

// Options configures a verification run. The zero value — all properties,
// GOMAXPROCS workers, automatic sparsification and prescreening — is the
// right default for interactive and service use; set Workers to 1 for the
// deterministic-serial path (the report is bit-identical either way).
type Options struct {
	// Workers is the goroutine budget for the probe fan-out; <= 0 means
	// GOMAXPROCS, 1 runs serially.
	Workers int
	// Props selects the properties to compute; zero means PropAll.
	Props Properties
	// Sparsify selects the sparse-certificate policy for the κ/λ probes.
	// The zero value (SparsifyAuto) enables the fast path on dense graphs;
	// it never changes any reported value or verdict.
	Sparsify Sparsify
	// Prescreen selects the Monte Carlo cut-prescreen policy for the κ/λ
	// probes. The zero value (PrescreenAuto) enables it on large graphs; it
	// never changes any reported value or verdict.
	Prescreen Prescreen
}
