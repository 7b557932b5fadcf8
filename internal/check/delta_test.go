package check

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"lhg/internal/core"
	"lhg/internal/graph"
	"lhg/internal/obs"
)

// reportsMatch asserts bit-identity of two reports, timing phases aside
// (wall clock is not part of the contract).
func reportsMatch(t *testing.T, tag string, got, want *Report) {
	t.Helper()
	g2, w2 := *got, *want
	g2.Phases, w2.Phases = nil, nil
	if !reflect.DeepEqual(&g2, &w2) {
		t.Fatalf("%s: delta report %s differs from full verify %s", tag, got, want)
	}
}

// churnEngine pairs a grower with a DeltaVerifier and drives both through a
// batch, returning the delta-derived and the fresh full report.
func advanceBoth(t *testing.T, gr *core.Grower, dv *DeltaVerifier, batch []core.Change, opt Options) (*Report, *Report) {
	t.Helper()
	d, err := gr.Apply(batch)
	if err != nil {
		t.Fatalf("apply %v: %v", batch, err)
	}
	got, err := dv.Advance(context.Background(), d, gr.N())
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	want, err := Verify(context.Background(), gr.Graph(), gr.K(), opt)
	if err != nil {
		t.Fatalf("full verify: %v", err)
	}
	return got, want
}

// TestDeltaVerifierMatchesFullUnderChurn: a DeltaVerifier chained through
// mixed join/leave batches produces, at every epoch, a report bit-identical
// to a fresh full verification — across batch boundaries, irregular
// intermediate sizes, growth and shrink.
func TestDeltaVerifierMatchesFullUnderChurn(t *testing.T) {
	J, L := core.ChangeJoin, core.ChangeLeave
	batches := [][]core.Change{
		{J}, {J, J, J}, {L}, {L, L}, {J, L, J}, {J, J, J, J, J},
		{L, L, L, L}, {J}, {L, J, J, L, L}, {J, J}, {L}, {L, L, L},
	}
	for _, name := range []string{"ktree", "kdiamond"} {
		k := 3
		at := core.NewKTreeGrowerAt
		if name == "kdiamond" {
			at = core.NewKDiamondGrowerAt
		}
		gr, err := at(k, 18)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Workers: 1}
		dv, err := NewDeltaVerifier(context.Background(), gr.Graph(), k, opt)
		if err != nil {
			t.Fatal(err)
		}
		for bi, batch := range batches {
			got, want := advanceBoth(t, gr, dv, batch, opt)
			reportsMatch(t, name, got, want)
			if bi == 0 && got.K != k {
				t.Fatalf("%s: report k=%d, want %d", name, got.K, k)
			}
		}
	}
}

// TestDeltaVerifierFastPathFires: healthy shrink and leaf-growth epochs must
// take the localized fast path, not fall back — the entire point of the
// incremental verifier. Asserted through the metrics counters.
func TestDeltaVerifierFastPathFires(t *testing.T) {
	obs.Enable()
	k := 3
	gr, err := core.NewKTreeGrowerAt(k, 22)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 1}
	dv, err := NewDeltaVerifier(context.Background(), gr.Graph(), k, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Pure leaves: the probe view is the final healthy graph, so every
	// localized probe meets c = δ and the fast path must fire.
	fast0 := mDeltaFastPaths.Value()
	got, want := advanceBoth(t, gr, dv, []core.Change{core.ChangeLeave, core.ChangeLeave, core.ChangeLeave, core.ChangeLeave}, opt)
	reportsMatch(t, "pure leaves", got, want)
	if mDeltaFastPaths.Value() != fast0+1 {
		t.Fatal("pure-leave epoch did not take the fast path")
	}
	// A pure leaf-addition join (no restructure at this size) removes no
	// edges: zero probes, greedy attachment — fast path again.
	// Zero probes build no flow arena either.
	fast0 = mDeltaFastPaths.Value()
	pairs0 := mDeltaPairs.Value()
	builds := obs.NewCounter("flow.arena.builds")
	d, err := gr.Apply([]core.Change{core.ChangeJoin})
	if err != nil {
		t.Fatal(err)
	}
	builds0 := builds.Value()
	got, err = dv.Advance(context.Background(), d, gr.N())
	if err != nil {
		t.Fatal(err)
	}
	if b := builds.Value() - builds0; b != 0 {
		t.Fatalf("leaf join built %d flow arenas, want 0", b)
	}
	want, err = Verify(context.Background(), gr.Graph(), k, opt)
	if err != nil {
		t.Fatal(err)
	}
	reportsMatch(t, "leaf join", got, want)
	if mDeltaFastPaths.Value() != fast0+1 {
		t.Fatal("leaf-join epoch did not take the fast path")
	}
	if mDeltaPairs.Value() != pairs0 {
		t.Fatalf("leaf join planned %d pair probes, want 0", mDeltaPairs.Value()-pairs0)
	}
}

// TestDeltaVerifierAdjacentDepartures: batched leaves tear out several
// labels at once — including mutually adjacent ones, which the probe
// planner must treat as one departed component (boundary pairs, not
// per-node pairs). K-DIAMOND's clique phases make adjacency likely.
func TestDeltaVerifierAdjacentDepartures(t *testing.T) {
	k := 4
	gr, err := core.NewKDiamondGrowerAt(k, 2*k+13)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 1}
	dv, err := NewDeltaVerifier(context.Background(), gr.Graph(), k, opt)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]core.Change, 9)
	for i := range batch {
		batch[i] = core.ChangeLeave
	}
	got, want := advanceBoth(t, gr, dv, batch, opt)
	reportsMatch(t, "batched departures", got, want)
}

// TestDeltaVerifierFastPathOnRestructureJoins pins the property the churn
// benchmark relies on: a batch of joins large enough to restructure the
// overlay (removing edges whose connectivity role the admitted nodes take
// over) still resolves on the fast path, because probes run in the final
// graph and the admitted-label components pass the subset-expansion check.
// A regression that reintroduces fallbacks here silently turns the 30×
// delta speedup back into a full re-verification; this test makes it loud.
func TestDeltaVerifierFastPathOnRestructureJoins(t *testing.T) {
	obs.Enable()
	k := 3
	gr, err := core.NewKTreeGrowerAt(k, 102) // grid-regular: n = 2 + 4t
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 1}
	dv, err := NewDeltaVerifier(context.Background(), gr.Graph(), k, opt)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]core.Change, 8)
	for i := range batch {
		batch[i] = core.ChangeJoin
	}
	d, err := gr.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	// The join batch at this size must actually remove edges — if the
	// overlay stopped restructuring, this test would stop testing the case.
	if len(d.Removed) == 0 {
		t.Fatal("join batch removed no edges; restructure case not exercised")
	}
	fast0 := mDeltaFastPaths.Value()
	fall0 := mDeltaFallbacks.Value()
	got, err := dv.Advance(context.Background(), d, gr.N())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Verify(context.Background(), gr.Graph(), k, opt)
	if err != nil {
		t.Fatal(err)
	}
	reportsMatch(t, "restructure joins", got, want)
	if mDeltaFastPaths.Value() != fast0+1 || mDeltaFallbacks.Value() != fall0 {
		t.Fatalf("restructure-join batch fell back to full verification (fastpaths %d->%d, fallbacks %d->%d)",
			fast0, mDeltaFastPaths.Value(), fall0, mDeltaFallbacks.Value())
	}
}

// TestVerifyDeltaFallsBackOnDamage: a delta that actually disconnects the
// graph cannot pass the localized probes; the verifier must fall back and
// the report must equal the full verification of the damaged graph.
func TestVerifyDeltaFallsBackOnDamage(t *testing.T) {
	obs.Enable()
	// C8: κ = λ = δ = 2.
	var es []graph.Edge
	for i := 0; i < 8; i++ {
		es = append(es, graph.Edge{U: i, V: (i + 1) % 8})
	}
	d0 := graph.EdgeDelta{Added: es}
	d0.Normalize()
	g, err := graph.FromEdges(8, d0.Added)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := NewDeltaVerifier(context.Background(), g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Tear out two opposite edges: the cycle splits into two paths.
	cut := graph.EdgeDelta{Removed: []graph.Edge{{U: 0, V: 1}, {U: 4, V: 5}}}
	fb0 := mDeltaFallbacks.Value()
	got, err := dv.Advance(context.Background(), cut, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mDeltaFallbacks.Value() != fb0+1 {
		t.Fatal("disconnecting delta must fall back to the full campaign")
	}
	next, err := g.ApplyDelta(cut, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Verify(context.Background(), next, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reportsMatch(t, "disconnecting delta", got, want)
	if got.NodeConnectivity != 0 || got.Diameter != -1 {
		t.Fatalf("damaged graph must report κ=0 diam=-1, got %s", got)
	}
}

// TestVerifyDeltaFallsBackBelowMinDegree: a delta that keeps the graph
// connected and δ(G′) = 4 but leaves λ(G′) = 3 < δ(G′). The fast path
// can only pin κ = λ = δ, so its probes must miss and it must decline;
// the report must equal the full verification's λ = 3.
func TestVerifyDeltaFallsBackBelowMinDegree(t *testing.T) {
	obs.Enable()
	// Two K5s, {0..4} and {5..9}, joined by the matching i-(i+5): the
	// prism K5 × K2, 5-regular with κ = λ = 5.
	var es []graph.Edge
	for side := 0; side <= 5; side += 5 {
		for u := 0; u < 5; u++ {
			for v := u + 1; v < 5; v++ {
				es = append(es, graph.Edge{U: side + u, V: side + v})
			}
		}
	}
	for i := 0; i < 5; i++ {
		es = append(es, graph.Edge{U: i, V: i + 5})
	}
	g, err := graph.FromEdges(10, es)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := NewDeltaVerifier(context.Background(), g, 4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two matching edges go: every node keeps degree >= 4, but only three
	// edges still join the cliques.
	cut := graph.EdgeDelta{Removed: []graph.Edge{{U: 0, V: 5}, {U: 1, V: 6}}}
	fast0, fb0 := mDeltaFastPaths.Value(), mDeltaFallbacks.Value()
	got, err := dv.Advance(context.Background(), cut, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mDeltaFastPaths.Value() != fast0 || mDeltaFallbacks.Value() != fb0+1 {
		t.Fatal("a delta with λ(G′) < δ(G′) must fall back to the full campaign")
	}
	next, err := g.ApplyDelta(cut, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Verify(context.Background(), next, 4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reportsMatch(t, "λ below δ", got, want)
	if got.MinDegree != 4 || got.EdgeConnectivity != 3 || got.NodeConnectivity != 3 {
		t.Fatalf("want δ = 4, λ = κ = 3, got %s", got)
	}
}

// TestVerifyDeltaFallsBackOnPendantAdmission: two admitted labels that
// see only each other and one old node. Every degree stays >= δ = 2 and
// no edge is removed, so no pair is probed; only the subset-expansion
// check sees that the old node now cuts the pair off, and the fast path
// must decline.
func TestVerifyDeltaFallsBackOnPendantAdmission(t *testing.T) {
	obs.Enable()
	var es []graph.Edge
	for i := 0; i < 8; i++ {
		es = append(es, graph.Edge{U: i, V: (i + 1) % 8})
	}
	g, err := graph.FromEdges(8, es)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := NewDeltaVerifier(context.Background(), g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	join := graph.EdgeDelta{Added: []graph.Edge{{U: 0, V: 8}, {U: 0, V: 9}, {U: 8, V: 9}}}
	fb0 := mDeltaFallbacks.Value()
	got, err := dv.Advance(context.Background(), join, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mDeltaFallbacks.Value() != fb0+1 {
		t.Fatal("an admission hanging off one node must fall back to the full campaign")
	}
	next, err := g.ApplyDelta(join, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Verify(context.Background(), next, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reportsMatch(t, "pendant admission", got, want)
	if got.NodeConnectivity != 1 || got.MinDegree != 2 {
		t.Fatalf("want κ = 1 below δ = 2, got %s", got)
	}
}

// TestVerifyDeltaPartialPropsFallsBack: the fast path only serves full
// reports; property-selected runs must defer to Verify untouched.
func TestVerifyDeltaPartialPropsFallsBack(t *testing.T) {
	obs.Enable()
	k := 3
	gr, err := core.NewKTreeGrowerAt(k, 14)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 1, Props: PropDiameter}
	dv, err := NewDeltaVerifier(context.Background(), gr.Graph(), k, opt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := gr.Grow()
	if err != nil {
		t.Fatal(err)
	}
	fb0 := mDeltaFallbacks.Value()
	got, err := dv.Advance(context.Background(), d, gr.N())
	if err != nil {
		t.Fatal(err)
	}
	if mDeltaFallbacks.Value() != fb0+1 {
		t.Fatal("partial-props delta verify must fall back")
	}
	want, err := Verify(context.Background(), gr.Graph(), k, opt)
	if err != nil {
		t.Fatal(err)
	}
	reportsMatch(t, "partial props", got, want)
}

// TestVerifyDeltaRandomGraphs: differential sweep on random (irregular,
// messy) graphs and random deltas — whatever path is taken, the report
// equals a fresh full verification.
func TestVerifyDeltaRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(10)
		var es []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					es = append(es, graph.Edge{U: u, V: v})
				}
			}
		}
		d0 := graph.EdgeDelta{Added: es}
		d0.Normalize()
		g, err := graph.FromEdges(n, d0.Added)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(3)
		dv, err := NewDeltaVerifier(context.Background(), g, k, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var d graph.EdgeDelta
		for _, e := range g.Edges() {
			if rng.Float64() < 0.2 {
				d.Removed = append(d.Removed, e)
			}
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !g.HasEdge(u, v) && rng.Float64() < 0.05 {
					d.Added = append(d.Added, graph.Edge{U: u, V: v})
				}
			}
		}
		d.Normalize()
		got, err := dv.Advance(context.Background(), d, n)
		if err != nil {
			t.Fatal(err)
		}
		next, err := g.ApplyDelta(d, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Verify(context.Background(), next, k, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		reportsMatch(t, "random trial", got, want)
	}
}

// TestDeltaVerifierKeepsEpochOnError: a rejected delta leaves the verifier
// on its previous graph and report, still able to advance.
func TestDeltaVerifierKeepsEpochOnError(t *testing.T) {
	k := 3
	gr, err := core.NewKTreeGrowerAt(k, 14)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := NewDeltaVerifier(context.Background(), gr.Graph(), k, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := dv.Report()
	bad := graph.EdgeDelta{Removed: []graph.Edge{{U: 0, V: 13}}}
	if !gr.Graph().HasEdge(0, 13) {
		bad.Removed[0] = graph.Edge{U: 99, V: 100} // out of range instead
	}
	bad.Added = []graph.Edge{{U: 200, V: 201}} // definitely invalid
	if _, err := dv.Advance(context.Background(), bad, 14); err == nil {
		t.Fatal("invalid delta must error")
	}
	if dv.Report() != before {
		t.Fatal("failed advance must keep the previous epoch")
	}
	d, err := gr.Grow()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dv.Advance(context.Background(), d, gr.N())
	if err != nil {
		t.Fatalf("advance after failed epoch: %v", err)
	}
	want, err := Verify(context.Background(), gr.Graph(), k, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reportsMatch(t, "post-error epoch", got, want)
}

// cancelOnPoll is a context that cancels itself on its at-th Err poll
// (never, when at is 0) and counts every poll, so a test can land a
// cancellation at a fixed point inside a serial campaign.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	polls  atomic.Int64
}

func newCancelOnPoll(at int64) *cancelOnPoll {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelOnPoll{Context: ctx, cancel: cancel, at: at}
}

func (c *cancelOnPoll) Err() error {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestDeltaVerifierCanceledAdvanceKeepsEpoch: a valid delta whose Advance
// is canceled half-way through the full-campaign fallback returns the
// cancellation and leaves the verifier on its previous graph and report;
// the next Advance of the same delta equals a fresh Verify.
func TestDeltaVerifierCanceledAdvanceKeepsEpoch(t *testing.T) {
	obs.Enable()
	k := 3
	gr, err := core.NewKTreeGrowerAt(k, 102)
	if err != nil {
		t.Fatal(err)
	}
	g := gr.Graph()
	opt := Options{Workers: 1}
	// Tearing out a matching larger than the pair gate forces the
	// fallback; δ stays 2, so the full campaign still runs its κ and λ
	// sweeps and the cancel lands between their probes.
	var d graph.EdgeDelta
	used := make([]bool, g.Order())
	for _, e := range g.Edges() {
		if len(d.Removed) > g.Order()/deltaProbeGateDiv {
			break
		}
		if !used[e.U] && !used[e.V] {
			used[e.U], used[e.V] = true, true
			d.Removed = append(d.Removed, e)
		}
	}
	n := g.Order()

	// Count the polls of an uncanceled Advance to aim at its middle.
	probe, err := NewDeltaVerifier(context.Background(), g, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	count := newCancelOnPoll(0)
	defer count.cancel()
	fb0, probes0 := mDeltaFallbacks.Value(), mFlowProbes.Value()
	if _, err := probe.Advance(count, d, n); err != nil {
		t.Fatal(err)
	}
	if mDeltaFallbacks.Value() != fb0+1 {
		t.Fatal("delta did not fall back to the full campaign; widen it past the pair gate")
	}
	polls, fullProbes := count.polls.Load(), mFlowProbes.Value()-probes0

	dv, err := NewDeltaVerifier(context.Background(), g, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	before, beforeG := dv.Report(), dv.Graph()
	mid := newCancelOnPoll(polls / 2)
	defer mid.cancel()
	probes0 = mFlowProbes.Value()
	if _, err := dv.Advance(mid, d, n); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled advance: err = %v, want context.Canceled", err)
	}
	if ran := mFlowProbes.Value() - probes0; ran == 0 || ran >= fullProbes {
		t.Fatalf("canceled advance ran %d of the campaign's %d probes; want a cancel mid-campaign", ran, fullProbes)
	}
	if dv.Report() != before || dv.Graph() != beforeG {
		t.Fatal("canceled advance must keep the previous epoch")
	}

	got, err := dv.Advance(context.Background(), d, n)
	if err != nil {
		t.Fatalf("advance after canceled epoch: %v", err)
	}
	next, err := g.ApplyDelta(d, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Verify(context.Background(), next, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	reportsMatch(t, "post-cancel epoch", got, want)
}
