package check

import (
	"context"
	"testing"

	"lhg/internal/graph"
	"lhg/internal/harary"
	"lhg/internal/obs"
)

// denseFixture builds the core–periphery graph the sparsify path is made
// for: Harary H(k,n) — which pins δ = k and κ = λ = k — plus a clique on
// the first `core` nodes, which inflates m far past k·n without touching
// the minimum degree. The (δ+1)-certificate keeps O(k·n) edges out of
// O(core²), so the fast path triggers under SparsifyAuto.
func denseFixture(tb testing.TB, n, k, core int) *graph.Graph {
	tb.Helper()
	h, err := harary.Build(n, k)
	if err != nil {
		tb.Fatal(err)
	}
	b := h.Thaw()
	for u := 0; u < core; u++ {
		for v := u + 1; v < core; v++ {
			if !b.HasEdge(u, v) {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Freeze()
}

// TestSparsifyTriggersOnDenseFixture proves the fast path actually runs
// on a dense graph (the sparsify phase appears, the counters move, the
// certificate is much smaller than the graph) and that every reported
// value — κ, λ, diameter, verdicts — matches the full pipeline.
func TestSparsifyTriggersOnDenseFixture(t *testing.T) {
	withSink(t)
	const n, k, core = 96, 4, 40
	g := denseFixture(t, n, k, core)
	if g.Size() <= SparsifyCutoff*k*n {
		t.Fatalf("fixture too sparse to trigger the fast path: m=%d", g.Size())
	}
	ctx := context.Background()
	props := PropNodeConnectivity | PropLinkConnectivity | PropDiameter

	full, err := Verify(ctx, g, k, Options{Workers: 1, Props: props, Sparsify: SparsifyOff})
	if err != nil {
		t.Fatal(err)
	}
	if c := obs.Counters()["check.sparsify.passes"]; c != 0 {
		t.Fatalf("SparsifyOff must not build certificates, passes=%d", c)
	}

	fast, err := Verify(ctx, g, k, Options{Workers: 1, Props: props}) // zero = SparsifyAuto
	if err != nil {
		t.Fatal(err)
	}
	counters := obs.Counters()
	if counters["check.sparsify.passes"] != 1 {
		t.Fatalf("auto sparsify did not trigger: passes=%d", counters["check.sparsify.passes"])
	}
	kept, dropped := counters["check.sparsify.edges_kept"], counters["check.sparsify.edges_dropped"]
	if kept+dropped != int64(g.Size()) {
		t.Fatalf("kept %d + dropped %d != m=%d", kept, dropped, g.Size())
	}
	if kept > int64((k+1)*(n-1)) {
		t.Fatalf("certificate kept %d edges, bound (δ+1)(n-1)=%d", kept, (k+1)*(n-1))
	}
	if dropped == 0 {
		t.Fatal("dense fixture must shed edges")
	}
	foundPhase := false
	for _, p := range fast.Phases {
		if p.Phase == "sparsify" {
			foundPhase = true
		}
	}
	if !foundPhase {
		t.Fatalf("sparsify phase missing from %+v", fast.Phases)
	}

	if reportCore(full) != reportCore(fast) {
		t.Fatalf("reports diverged:\n full %+v\n fast %+v", reportCore(full), reportCore(fast))
	}
	if full.NodeConnectivity != k || full.EdgeConnectivity != k {
		t.Fatalf("fixture sanity: κ=%d λ=%d, want %d", full.NodeConnectivity, full.EdgeConnectivity, k)
	}
}

// TestSparsifyAutoSkipsSparseGraphs pins the cutoff behavior the probe
// count tests depend on: an LHG-sized sparse graph (m ≈ k·n/2) never
// builds a certificate under SparsifyAuto.
func TestSparsifyAutoSkipsSparseGraphs(t *testing.T) {
	withSink(t)
	g := petersen()
	if _, err := Verify(context.Background(), g, 3, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if c := obs.Counters()["check.sparsify.passes"]; c != 0 {
		t.Fatalf("sparse graph must not trigger sparsify, passes=%d", c)
	}
}

// TestSparseProbeViewPolicies covers the helper directly: the view is g
// itself when the policy or the density gate rules the certificate out,
// and a "sparsify" phase is recorded exactly when the gate lets it run.
func TestSparseProbeViewPolicies(t *testing.T) {
	view := func(g *graph.Graph, policy Sparsify) (*graph.Graph, []PhaseTiming) {
		t.Helper()
		var phases []PhaseTiming
		v, err := sparseProbeView(phaseRunner{ctx: context.Background(), spanPrefix: "check.", phases: &phases}, g, 3, policy)
		if err != nil {
			t.Fatal(err)
		}
		return v, phases
	}
	g := denseFixture(t, 48, 3, 24)
	if v, phases := view(g, SparsifyOff); v != g || len(phases) != 0 {
		t.Fatal("off must return the graph itself without a phase")
	}
	v, phases := view(g, SparsifyAuto)
	if v == g || v.Size() >= g.Size() || len(phases) != 1 || phases[0].Phase != "sparsify" {
		t.Fatalf("auto must sparsify the dense fixture: m=%d phases=%+v", v.Size(), phases)
	}
	if v.Order() != g.Order() {
		t.Fatal("view must span the same nodes")
	}
	sparse := petersen()
	if v, phases := view(sparse, SparsifyAuto); v != sparse || len(phases) != 0 {
		t.Fatal("auto must skip sparse graphs")
	}
	if v, phases := view(sparse, SparsifyAlways); v.Size() != sparse.Size() || len(phases) != 1 {
		t.Fatalf("always must force the certificate: m=%d phases=%+v", v.Size(), phases)
	}
}
