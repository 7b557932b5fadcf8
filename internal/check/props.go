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

// Options configures a verification run. The zero value — all properties,
// GOMAXPROCS workers — is the right default for interactive and service
// use; set Workers to 1 for the deterministic-serial path (the report is
// bit-identical either way).
type Options struct {
	// Workers is the goroutine budget for the probe fan-out; <= 0 means
	// GOMAXPROCS, 1 runs serially.
	Workers int
	// Props selects the properties to compute; zero means PropAll.
	Props Properties
}
