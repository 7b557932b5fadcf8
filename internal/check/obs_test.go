package check

import (
	"context"
	"strings"
	"testing"

	"lhg/internal/flow"
	"lhg/internal/graph"
	"lhg/internal/obs"
)

// withSink resets the metrics registry and enables the sink for one test,
// restoring the disabled default afterwards. Tests that use it share the
// process-global registry and therefore must not run in parallel.
func withSink(t *testing.T) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
}

// irregularPetersen is the Petersen graph plus one chord between the
// non-adjacent outer nodes 0 and 2: still κ=λ=3, but Δ=4 ≠ λ, so the
// per-edge P3 sweep cannot short-circuit on regularity.
func irregularPetersen() *graph.Graph {
	b := graph.NewBuilder(10)
	for v := 0; v < 5; v++ {
		b.MustAddEdge(v, (v+1)%5)
		b.MustAddEdge(5+v, 5+(v+2)%5)
		b.MustAddEdge(v, 5+v)
	}
	b.MustAddEdge(0, 2)
	return b.Freeze()
}

// expectedVerifyProbes computes, from first principles and without touching
// the instrumented code paths, the exact number of max-flow probes each
// verification phase must issue on a connected graph:
//
//   - kappa: the Esfahanian–Hakimi reduction probes the min-degree node v
//     against every non-neighbor outside a greedy independent set of
//     G−N[v] (built in id order: a non-neighbor joins it unless one of its
//     neighbors already has), plus every non-adjacent pair of v's
//     neighbors — one flow per pair, serial or parallel.
//   - lambda: the Matula shared pass probes the pivot (first member of the
//     deterministic greedy dominating set) against every other member —
//     one flow per non-pivot member.
//   - minimality: per edge, one flow when the masked edge cut already
//     refutes removability, two when the vertex cut must also be checked.
//
// The probe counts (unlike augmenting-path counts or pool traffic) do not
// depend on the early-exit limits, so they are identical for serial and
// parallel runs.
func expectedVerifyProbes(t *testing.T, g *graph.Graph, lambda int) (kappa, lam, min int64) {
	t.Helper()
	if obs.Enabled() {
		t.Fatal("ground truth must be computed with the sink disabled")
	}
	n := g.Order()
	_, v := g.MinDegree()
	isNbr := make([]bool, n)
	nbrs := g.Neighbors(v)
	for _, w := range nbrs {
		isNbr[w] = true
	}
	indep := make([]bool, n)
	for u := 0; u < n; u++ {
		if u == v || isNbr[u] {
			continue
		}
		joins := true
		for _, w := range g.Neighbors(u) {
			joins = joins && !indep[w]
		}
		if joins {
			indep[u] = true // skipped: no probe
		} else {
			kappa++
		}
	}
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !g.HasEdge(nbrs[i], nbrs[j]) {
				kappa++
			}
		}
	}
	lam = int64(len(g.DominatingSet()) - 1)
	kappaVal, _ := flow.VertexConnectivity(context.Background(), g, 1)
	for _, e := range g.Edges() {
		if d := min2(g.Degree(e.U), g.Degree(e.V)); d <= lambda || d <= kappaVal {
			continue // degree shortcut: the sweep refutes without a flow
		}
		cut, err := flow.EdgeCut(g.WithoutEdge(e.U, e.V), e.U, e.V)
		if err != nil {
			t.Fatal(err)
		}
		if cut < lambda {
			min++ // the edge-cut probe refutes; no vertex probe follows
		} else {
			min += 2
		}
	}
	return kappa, lam, min
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestVerifyMetricsMatchGroundTruth is the differential test behind the
// instrumentation: the probe counters the flow layer publishes during a
// full verification must exactly match the counts derived independently
// from the algorithm's definition, phase by phase.
func TestVerifyMetricsMatchGroundTruth(t *testing.T) {
	g := irregularPetersen()
	obs.Disable()
	kp, lp, mp := expectedVerifyProbes(t, g, 3)
	withSink(t)

	for _, workers := range []int{1, 4} {
		obs.Reset()
		r, err := Verify(context.Background(), g, 3, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !r.KNodeConnected || !r.KLinkConnected {
			t.Fatalf("workers=%d: expected a 3-connected witness: %s", workers, r)
		}
		if len(r.Phases) != 4 {
			t.Fatalf("workers=%d: %d phases recorded, want 4", workers, len(r.Phases))
		}
		want := map[string]int64{
			"kappa":      kp,
			"lambda":     lp,
			"minimality": mp,
			"distances":  0,
		}
		for _, p := range r.Phases {
			if p.Probes != want[p.Phase] {
				t.Errorf("workers=%d: phase %s issued %d probes, ground truth %d",
					workers, p.Phase, p.Probes, want[p.Phase])
			}
		}
		if got := mFlowProbes.Value(); got != kp+lp+mp {
			t.Errorf("workers=%d: flow.maxflow.probes = %d, ground truth %d",
				workers, got, kp+lp+mp)
		}
		if got := mP3EdgesProbed.Value(); got != int64(g.Size()) {
			t.Errorf("workers=%d: check.p3.edges_probed = %d, want %d (every edge)",
				workers, got, g.Size())
		}
		if mVerifyRuns.Value() != 1 {
			t.Errorf("workers=%d: check.verify.runs = %d, want 1", workers, mVerifyRuns.Value())
		}
	}
}

// TestSerialParallelCountersAgree pins which counters are deterministic
// across worker counts: total max-flow probes and P3 edges probed must be
// bit-identical between a serial and a parallel run of the same
// verification. (Augmenting-path counts and network-pool traffic are
// deliberately excluded — stale early-exit limits and per-worker network
// reuse make them schedule-dependent.)
func TestSerialParallelCountersAgree(t *testing.T) {
	g := irregularPetersen()
	withSink(t)

	if _, err := Verify(context.Background(), g, 3, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	serialProbes := mFlowProbes.Value()
	serialEdges := mP3EdgesProbed.Value()

	obs.Reset()
	if _, err := Verify(context.Background(), g, 3, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if got := mFlowProbes.Value(); got != serialProbes {
		t.Errorf("flow.maxflow.probes: parallel %d != serial %d", got, serialProbes)
	}
	if got := mP3EdgesProbed.Value(); got != serialEdges {
		t.Errorf("check.p3.edges_probed: parallel %d != serial %d", got, serialEdges)
	}
}

// TestPhasesWithoutSink: phase wall times are always recorded (they cost
// one time.Since per phase), but probe counts stay zero when the sink is
// off, and the -v breakdown still renders.
func TestPhasesWithoutSink(t *testing.T) {
	obs.Disable()
	obs.Reset()
	r, err := Verify(context.Background(), petersen(), 3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Phases) != 4 {
		t.Fatalf("%d phases recorded, want 4", len(r.Phases))
	}
	for _, p := range r.Phases {
		if p.Probes != 0 {
			t.Errorf("phase %s reports %d probes with the sink disabled", p.Phase, p.Probes)
		}
	}
	b := r.PhaseBreakdown()
	for _, wantLine := range []string{"kappa:", "lambda:", "minimality:", "distances:", "total:", "workers: 1"} {
		if !strings.Contains(b, wantLine) {
			t.Errorf("PhaseBreakdown missing %q:\n%s", wantLine, b)
		}
	}
}
