package lhg_test

// Benchmark harness: one benchmark per experiment table/figure (see
// DESIGN.md E1..E14 and EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-specific; the benchmarks exist to (a) keep
// the experiment pipeline honest under -benchmem and (b) show the asymptotic
// shapes (construction is near-linear, verification is polynomial,
// flooding is O(m) per run).

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lhg"
	"lhg/internal/check"
	"lhg/internal/classic"
	"lhg/internal/core"
	"lhg/internal/faultnet"
	"lhg/internal/flood"
	"lhg/internal/flow"
	"lhg/internal/graph"
	"lhg/internal/netflood"
	"lhg/internal/overlay"
	"lhg/internal/proc"
	"lhg/internal/sim"
	"lhg/internal/spectral"
)

var (
	sinkGraph  *lhg.Graph
	sinkInt    int
	sinkBool   bool
	sinkResult *flood.Result
	sinkFloat  float64
)

func buildOrFatal(tb testing.TB, c lhg.Constraint, n, k int) *lhg.Graph {
	tb.Helper()
	g, err := lhg.Build(context.Background(), c, n, k)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkBuildKTree covers E1: K-TREE construction across sizes.
func BenchmarkBuildKTree(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkGraph = buildOrFatal(b, lhg.KTree, n, 4)
			}
		})
	}
}

// BenchmarkBuildKDiamond covers E2: K-DIAMOND construction across sizes.
func BenchmarkBuildKDiamond(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkGraph = buildOrFatal(b, lhg.KDiamond, n, 4)
			}
		})
	}
}

// BenchmarkBuildJD covers E9: Jenkins–Demers construction (on its feasible
// sizes) including the decomposition search.
func BenchmarkBuildJD(b *testing.B) {
	for _, n := range []int{62, 512, 4094} {
		if !lhg.Exists(lhg.JD, n, 4) {
			b.Fatalf("n=%d not JD-feasible; pick sizes on the grid", n)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkGraph = buildOrFatal(b, lhg.JD, n, 4)
			}
		})
	}
}

// BenchmarkBuildHarary is the baseline constructor used throughout E10-E13.
func BenchmarkBuildHarary(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkGraph = buildOrFatal(b, lhg.Harary, n, 4)
			}
		})
	}
}

// BenchmarkVerify covers the exact property verification used in E1/E2:
// full max-flow based κ/λ plus P3/P4. The n=64 case is irregular (off the
// Theorem 6 regularity grid), so it exercises the full per-edge P3 sweep.
func BenchmarkVerify(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		g := buildOrFatal(b, lhg.KDiamond, n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := lhg.Verify(context.Background(), g, 4)
				if err != nil {
					b.Fatal(err)
				}
				sinkBool = r.IsLHG()
			}
		})
	}
	// The headline irregular case: 1024 nodes, k=8. The canonical
	// K-DIAMOND(1024,8) lands exactly on the Theorem 6 regularity grid
	// (1024 = 16 + 7·144), which would short-circuit P3; dropping one edge
	// makes the graph irregular so every edge is probed by the per-edge
	// P3 sweep — the path that used to Clone() per edge.
	g := buildOrFatal(b, lhg.KDiamond, 1024, 8)
	e := g.Edges()[0]
	g = g.WithoutEdge(e.U, e.V)
	b.Run("n=1024-k=8-irregular", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := lhg.Verify(context.Background(), g, 8)
			if err != nil {
				b.Fatal(err)
			}
			sinkBool = r.IsLHG()
		}
	})
}

// BenchmarkVerifySweep is the perf-trajectory series emitted into
// BENCH_verify.json by `make bench`: full exact verification at the sweep
// sizes (all three are irregular K-DIAMOND instances, so the per-edge P3
// sweep runs).
func BenchmarkVerifySweep(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		g := buildOrFatal(b, lhg.KDiamond, n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := lhg.Verify(context.Background(), g, 4)
				if err != nil {
					b.Fatal(err)
				}
				sinkBool = r.IsLHG()
			}
		})
	}
}

// BenchmarkDistanceStats is the P4 distance-phase series emitted into
// BENCH_verify.json by `make bench`: one all-sources BFS sweep (diameter
// and average path length, the lane kernel of internal/graph) on
// K-TREE(4096,3) and K-DIAMOND(4096,4), serial and with the source
// batches fanned across two workers.
func BenchmarkDistanceStats(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    lhg.Constraint
		k    int
	}{{"ktree3", lhg.KTree, 3}, {"kdiamond4", lhg.KDiamond, 4}} {
		g := buildOrFatal(b, tc.c, 4096, tc.k)
		for _, workers := range []int{1, 2} {
			variant := "serial"
			if workers > 1 {
				variant = fmt.Sprintf("workers=%d", workers)
			}
			b.Run(fmt.Sprintf("%s/n=4096/%s", tc.name, variant), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					diam, _, err := g.DistanceStatsCtx(context.Background(), workers)
					if err != nil {
						b.Fatal(err)
					}
					sinkInt = diam
				}
			})
		}
	}
}

// BenchmarkVerifyMillionScreen is the scale-tier series emitted into
// BENCH_verify.json by `make bench`: the certified screen (exact linear
// checks + seeded Karger candidate cuts + sampled exact max-flow probes) over
// a k-regular K-TREE instance at the construction grid point nearest 10^6
// nodes. The per-phase split is reported as extra metrics: prescreen_ms is
// the Monte Carlo contraction pass, confirm_ms the exact flow probes. The
// screen must come back clean — refuting a valid K-TREE would be a bug,
// not a slow run.
func BenchmarkVerifyMillionScreen(b *testing.B) {
	const k = 3
	n := 1_000_002 // K-TREE k=3 grid: n ≡ 2 (mod 4)
	for !lhg.Exists(lhg.KTree, n, k) {
		n += 2
	}
	g := buildOrFatal(b, lhg.KTree, n, k)
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		var prescreenMs, confirmMs float64
		for i := 0; i < b.N; i++ {
			r, err := lhg.Screen(context.Background(), g, k, lhg.ScreenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !r.OK() || !r.Regular || !r.Connected {
				b.Fatalf("screen refuted a valid K-TREE: %s", r)
			}
			for _, p := range r.Phases {
				switch p.Phase {
				case "prescreen":
					prescreenMs += p.Ms
				case "confirm":
					confirmMs += p.Ms
				}
			}
			sinkBool = r.OK()
		}
		b.ReportMetric(prescreenMs/float64(b.N), "prescreen_ms/op")
		b.ReportMetric(confirmMs/float64(b.N), "confirm_ms/op")
	})
}

// BenchmarkVerifyDense is the sparse-certificate headline series emitted
// into BENCH_sparsify.json by `make bench`: P1/P2/P4 verification of a
// dense core–periphery graph — Harary H(4,512) for δ = κ = λ = 4, plus a
// clique on the first 192 nodes for m ≈ 19k ≫ k·n — with the fast path
// off ("full", check.SparsifyOff) and on ("sparsified", the default
// check.SparsifyAuto). Reports are bit-identical; only the
// κ/λ probe substrate differs (~19k edges vs the ≤ (δ+1)(n−1) ≈ 2.5k of
// the Nagamochi–Ibaraki certificate).
func BenchmarkVerifyDense(b *testing.B) {
	const n, k, core = 512, 4, 192
	bb := buildOrFatal(b, lhg.Harary, n, k).Thaw()
	for u := 0; u < core; u++ {
		for v := u + 1; v < core; v++ {
			if !bb.HasEdge(u, v) {
				bb.MustAddEdge(u, v)
			}
		}
	}
	g := bb.Freeze()
	props := check.PropNodeConnectivity | check.PropLinkConnectivity | check.PropDiameter
	for _, tc := range []struct {
		name     string
		sparsify check.Sparsify
	}{
		{"full", check.SparsifyOff},
		{"sparsified", check.SparsifyAuto},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := check.Verify(context.Background(), g, k,
					check.Options{Props: props, Sparsify: tc.sparsify})
				if err != nil {
					b.Fatal(err)
				}
				if r.NodeConnectivity != k || r.EdgeConnectivity != k {
					b.Fatalf("κ=%d λ=%d, want %d", r.NodeConnectivity, r.EdgeConnectivity, k)
				}
				sinkBool = r.IsLHG()
			}
		})
	}
}

// BenchmarkVerifyParallel is BenchmarkVerifySweep driven through the
// worker-pool verifier with one worker per core.
func BenchmarkVerifyParallel(b *testing.B) {
	for _, n := range []int{256, 1024} {
		g := buildOrFatal(b, lhg.KDiamond, n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := lhg.Verify(context.Background(), g, 4, lhg.WithWorkers(0))
				if err != nil {
					b.Fatal(err)
				}
				sinkBool = r.IsLHG()
			}
		})
	}
}

// BenchmarkFlood is the flood series for BENCH_verify.json: one fault-free
// flood per iteration at the sweep sizes. Steady-state floods allocate only
// the per-run result slices.
func BenchmarkFlood(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		g := buildOrFatal(b, lhg.KDiamond, n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := lhg.Flood(context.Background(), g, 0)
				if err != nil {
					b.Fatal(err)
				}
				sinkResult = res
			}
		})
	}
}

// BenchmarkBFSSteadyState measures one full BFS on the frozen CSR view.
// After the first iteration warms the scratch pool, the traversal itself
// is allocation-free (0 allocs/op).
func BenchmarkBFSSteadyState(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 1024, 4)
	sinkBool = g.Connected() // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = g.Connected()
	}
}

// BenchmarkEdgeProbeSteadyState times one P3 removal probe that the
// degree shortcut answers: the edge has an endpoint of degree k, so
// flow.EdgeIsRemovable returns false without running a flow. It is the
// per-edge cost of the near-regular P3 sweeps (0 allocs/op);
// BenchmarkEdgeProbeFlow times a probe that runs both flows.
func BenchmarkEdgeProbeSteadyState(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 1024, 4)
	e := g.Edges()[0]
	sinkBool = flow.EdgeIsRemovable(g, e, 4, 4) // warm the network pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = flow.EdgeIsRemovable(g, e, 4, 4)
	}
}

// chordedKDiamond returns K-DIAMOND(n,4) plus one chord from node 0 to the
// first non-neighbor at or after n/2. Both chord endpoints then have
// degree above κ = λ = 4, so a removal probe of the chord skips the degree
// shortcut and runs the edge flow and then the vertex flow.
func chordedKDiamond(tb testing.TB, n int) (*lhg.Graph, lhg.Edge) {
	tb.Helper()
	g := buildOrFatal(tb, lhg.KDiamond, n, 4)
	v := n / 2
	for g.HasEdge(0, v) {
		v++
	}
	bb := g.Thaw()
	bb.MustAddEdge(0, v)
	return bb.Freeze(), lhg.Edge{U: 0, V: v}
}

// BenchmarkEdgeProbeFlow times one P3 removal probe that runs both
// flows: flow.EdgeIsRemovable on a chord of K-DIAMOND(1024,4) whose
// endpoints both have degree above κ and λ. The chord is removable, so
// the edge flow reaches λ and the vertex flow follows. With the network
// pool warm it runs without allocating (0 allocs/op).
func BenchmarkEdgeProbeFlow(b *testing.B) {
	g, e := chordedKDiamond(b, 1024)
	if !flow.EdgeIsRemovable(g, e, 4, 4) { // also warms the network pool
		b.Fatalf("chord %v of K-DIAMOND(1024,4) is not removable", e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = flow.EdgeIsRemovable(g, e, 4, 4)
	}
}

// BenchmarkBFSSteadyStateMetricsOn is BenchmarkBFSSteadyState with the
// metrics sink enabled: what one live counter costs on the BFS entry path
// (one atomic add per traversal, still 0 allocs/op).
func BenchmarkBFSSteadyStateMetricsOn(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 1024, 4)
	sinkBool = g.Connected() // warm the scratch pool
	lhg.EnableMetrics()
	defer func() {
		lhg.DisableMetrics()
		lhg.ResetMetrics()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = g.Connected()
	}
}

// BenchmarkEdgeProbeSteadyStateMetricsOn is BenchmarkEdgeProbeSteadyState
// with the metrics sink enabled: per-probe counters on the hottest
// verification path (a handful of atomic adds per probe, 0 allocs/op).
func BenchmarkEdgeProbeSteadyStateMetricsOn(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 1024, 4)
	e := g.Edges()[0]
	sinkBool = flow.EdgeIsRemovable(g, e, 4, 4) // warm the network pool
	lhg.EnableMetrics()
	defer func() {
		lhg.DisableMetrics()
		lhg.ResetMetrics()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = flow.EdgeIsRemovable(g, e, 4, 4)
	}
}

// BenchmarkIsLHG times the boolean lhg.IsLHG verdict on K-TREE(n,4).
// IsLHG is the exact verifier with all four properties, so this is a full
// Verify that returns only Report.IsLHG().
func BenchmarkIsLHG(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		g := buildOrFatal(b, lhg.KTree, n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := lhg.IsLHG(context.Background(), g, 4)
				if err != nil {
					b.Fatal(err)
				}
				sinkBool = ok
			}
		})
	}
}

// TestSteadyStateProbesAllocFree pins the acceptance criterion behind the
// scratch/network pools: once warm, a full BFS, a P3 edge probe that takes
// the degree shortcut and one that runs both flows all run on the frozen
// view without allocating.
func TestSteadyStateProbesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; alloc counts are meaningless")
	}
	g, err := lhg.Build(context.Background(), lhg.KDiamond, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[0]
	sinkBool = g.Connected()                    // warm the BFS scratch pool
	sinkBool = flow.EdgeIsRemovable(g, e, 4, 4) // warm the network pool
	if avg := testing.AllocsPerRun(50, func() { sinkBool = g.Connected() }); avg != 0 {
		t.Fatalf("steady-state BFS allocates %.1f times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { sinkBool = flow.EdgeIsRemovable(g, e, 4, 4) }); avg != 0 {
		t.Fatalf("steady-state edge probe allocates %.1f times per run, want 0", avg)
	}
	cg, chord := chordedKDiamond(t, 256)
	if !flow.EdgeIsRemovable(cg, chord, 4, 4) { // warms the pool for both flows
		t.Fatalf("chord %v of K-DIAMOND(256,4) is not removable", chord)
	}
	if avg := testing.AllocsPerRun(50, func() { sinkBool = flow.EdgeIsRemovable(cg, chord, 4, 4) }); avg != 0 {
		t.Fatalf("steady-state two-flow edge probe allocates %.1f times per run, want 0", avg)
	}
}

// BenchmarkDisjointPaths covers E3: Menger path extraction on the Figure 1
// witness and larger instances.
func BenchmarkDisjointPaths(b *testing.B) {
	for _, n := range []int{21, 201, 2001} {
		kt, err := core.BuildKTree(n, 3)
		if err != nil {
			b.Fatal(err)
		}
		g := kt.Real.Graph
		s := kt.Real.CopyNode[0][1]
		t := kt.Real.CopyNode[2][2]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				paths, err := flow.VertexDisjointPaths(g, s, t)
				if err != nil {
					b.Fatal(err)
				}
				sinkInt = len(paths)
			}
		})
	}
}

// BenchmarkExistenceSweep covers E4/E6: the closed-form EX functions over a
// dense grid (these are what a membership service calls on every resize).
func BenchmarkExistenceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		count := 0
		for k := 3; k <= 8; k++ {
			for n := k + 1; n <= 40*k; n++ {
				if lhg.Exists(lhg.KTree, n, k) && lhg.Exists(lhg.KDiamond, n, k) {
					count++
				}
				if lhg.Exists(lhg.JD, n, k) {
					count++
				}
			}
		}
		sinkInt = count
	}
}

// BenchmarkDiameter covers E10: all-pairs BFS diameter, the dominant cost
// of the diameter tables.
func BenchmarkDiameter(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    lhg.Constraint
	}{{"harary", lhg.Harary}, {"kdiamond", lhg.KDiamond}} {
		g := buildOrFatal(b, tc.c, 512, 4)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = g.Diameter()
			}
		})
	}
}

// BenchmarkFloodRounds covers E11: one fault-free flood per iteration.
func BenchmarkFloodRounds(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    lhg.Constraint
	}{{"harary", lhg.Harary}, {"ktree", lhg.KTree}, {"kdiamond", lhg.KDiamond}} {
		g := buildOrFatal(b, tc.c, 512, 4)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := lhg.Flood(context.Background(), g, 0)
				if err != nil {
					b.Fatal(err)
				}
				sinkResult = res
			}
		})
	}
}

// BenchmarkFloodFailures covers E12: flooding with k-1 random crashes.
func BenchmarkFloodFailures(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 512, 4)
	rng := sim.NewRNG(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fails, err := flood.RandomNodeFailures(g, 0, 3, rng)
		if err != nil {
			b.Fatal(err)
		}
		res, err := lhg.Flood(context.Background(), g, 0, lhg.WithFailures(fails))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("4-connected flood must survive 3 crashes")
		}
		sinkResult = res
	}
}

// BenchmarkAdversary covers the E12 adversarial column: computing a minimum
// vertex cut to attack the flood.
func BenchmarkAdversary(b *testing.B) {
	g := buildOrFatal(b, lhg.KTree, 128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fails, err := flood.AdversarialNodeFailures(g, 0, 4)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt = len(fails.Nodes)
	}
}

// BenchmarkMessageCost covers E13: message accounting across one flood.
func BenchmarkMessageCost(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    lhg.Constraint
	}{{"harary", lhg.Harary}, {"kdiamond", lhg.KDiamond}} {
		g := buildOrFatal(b, tc.c, 1024, 3)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := lhg.Flood(context.Background(), g, 0)
				if err != nil {
					b.Fatal(err)
				}
				sinkInt = res.Messages
			}
		})
	}
}

// BenchmarkOverlayJoin covers E14: a membership change including the
// topology rebuild and churn diff.
func BenchmarkOverlayJoin(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    lhg.Constraint
	}{{"ktree", lhg.KTree}, {"kdiamond", lhg.KDiamond}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := func(n, k int) (*graph.Graph, error) { return lhg.Build(context.Background(), tc.c, n, k) }
			o, err := overlay.New(4, 256, topo)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := o.Join()
				if err != nil {
					b.Fatal(err)
				}
				sinkInt = c.Total()
			}
		})
	}
}

// BenchmarkConnectivity is the verification primitive underneath E1-E9:
// exact vertex connectivity of a 4-connected 128-node LHG.
func BenchmarkConnectivity(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt, _ = flow.VertexConnectivity(context.Background(), g, 1)
	}
}

// BenchmarkGrowerJoin covers E15: one incremental admission (Theorem 2/5
// proof step) — O(k²) work independent of the overlay size.
func BenchmarkGrowerJoin(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() (overlay.Grower, error)
	}{
		{name: "ktree", mk: func() (overlay.Grower, error) { return lhg.NewKTreeGrower(4) }},
		{name: "kdiamond", mk: func() (overlay.Grower, error) { return lhg.NewKDiamondGrower(4) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			gr, err := tc.mk()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := gr.Grow()
				if err != nil {
					b.Fatal(err)
				}
				sinkInt = d.Total()
			}
		})
	}
}

// BenchmarkGossip covers E16: one bounded-fanout gossip dissemination.
func BenchmarkGossip(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 512, 4)
	rng := sim.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flood.Gossip(g, 0, 3, flood.Failures{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
}

// BenchmarkProtocolBroadcast covers E17: one full protocol-level broadcast
// over the discrete-event runtime.
func BenchmarkProtocolBroadcast(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := proc.NewNetwork(g, proc.WithSendOverhead(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Broadcast(0, "m", 0); err != nil {
			b.Fatal(err)
		}
		net.Run()
		sinkInt = net.MessagesSent()
	}
}

// BenchmarkSpectralGap covers E18: one spectral-gap estimation.
func BenchmarkSpectralGap(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap, err := spectral.SpectralGap(g, spectral.Options{Iterations: 2000})
		if err != nil {
			b.Fatal(err)
		}
		sinkFloat = gap
	}
}

// BenchmarkRouter covers E19: one structured routing query from blueprint
// metadata (no search).
func BenchmarkRouter(b *testing.B) {
	kd, err := core.BuildKDiamond(323, 4)
	if err != nil {
		b.Fatal(err)
	}
	router, err := core.NewRouter(kd.Blue, kd.Real)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, err := router.Route(i%323, (i*7+13)%323)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt = len(path)
	}
}

// BenchmarkBetweenness covers E20: exact Brandes centrality.
func BenchmarkBetweenness(b *testing.B) {
	g := buildOrFatal(b, lhg.KDiamond, 128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc := g.Betweenness()
		sinkFloat = bc[0]
	}
}

// BenchmarkMembershipCycle covers E21: one join + crash + repair cycle of
// the self-healing membership service.
func BenchmarkMembershipCycle(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := lhg.NewMembership(lhg.KDiamond, 4, 24)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ProposeJoin(); err != nil {
			b.Fatal(err)
		}
		if err := s.Crash(3, 9, 15); err != nil {
			b.Fatal(err)
		}
		rep, err := s.Repair()
		if err != nil {
			b.Fatal(err)
		}
		sinkInt = rep.Churn.Total()
	}
}

// BenchmarkBuildClassic covers E22: constructing the related-work families.
func BenchmarkBuildClassic(b *testing.B) {
	b.Run("hypercube-d10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := classic.Hypercube(10)
			if err != nil {
				b.Fatal(err)
			}
			sinkInt = g.Size()
		}
	})
	b.Run("debruijn-2-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := classic.DeBruijn(2, 10)
			if err != nil {
				b.Fatal(err)
			}
			sinkInt = g.Size()
		}
	})
	b.Run("ccc-d7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := classic.CCC(7)
			if err != nil {
				b.Fatal(err)
			}
			sinkInt = g.Size()
		}
	})
}

// BenchmarkReconfigureVerifyDelta is the PR-6 headline series emitted into
// BENCH_reconfigure.json by `make bench`: 1% churn batches on K-TREE(k=3)
// near n=1024 and n=4096 (1026/4098 are the nearest sizes on the k=3
// construction grid), re-verified incrementally by DeltaVerifier.Advance.
// Batches alternate pure-leave and pure-join so each iteration issues real
// surgery (a mixed batch of equal halves nets to the identity). Compare
// against BenchmarkReconfigureVerifyFull, which re-verifies the same churn
// from scratch as a rebuild-era deployment would.
func BenchmarkReconfigureVerifyDelta(b *testing.B) {
	for _, bc := range []struct{ label, n int }{{1024, 1026}, {4096, 4098}} {
		b.Run(fmt.Sprintf("n=%d", bc.label), func(b *testing.B) {
			eng, err := lhg.NewKTreeGrowerAt(3, bc.n)
			if err != nil {
				b.Fatal(err)
			}
			dv, err := lhg.NewDeltaVerifier(context.Background(), eng.Graph(), 3)
			if err != nil {
				b.Fatal(err)
			}
			batch := churnBatch(bc.n / 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := eng.Apply(batch[i%2])
				if err != nil {
					b.Fatal(err)
				}
				r, err := dv.Advance(context.Background(), d, eng.N())
				if err != nil {
					b.Fatal(err)
				}
				sinkBool = r.IsLHG()
			}
		})
	}
}

// BenchmarkReconfigureVerifyFull is the rebuild-era baseline for the same
// churn schedule: apply the batch, then run the full verification campaign
// on the result.
func BenchmarkReconfigureVerifyFull(b *testing.B) {
	for _, bc := range []struct{ label, n int }{{1024, 1026}, {4096, 4098}} {
		b.Run(fmt.Sprintf("n=%d", bc.label), func(b *testing.B) {
			eng, err := lhg.NewKTreeGrowerAt(3, bc.n)
			if err != nil {
				b.Fatal(err)
			}
			batch := churnBatch(bc.n / 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Apply(batch[i%2]); err != nil {
					b.Fatal(err)
				}
				r, err := lhg.Verify(context.Background(), eng.Graph(), 3)
				if err != nil {
					b.Fatal(err)
				}
				sinkBool = r.IsLHG()
			}
		})
	}
}

// churnBatch returns the alternating 1%-churn schedule: batch[0] is size
// pure leaves, batch[1] the matching pure joins, so applying them in turn
// oscillates the overlay without drifting. size is rounded up to the k=3
// construction grid stride (4) so both endpoints of the oscillation are
// regular: P3's Δ = λ shortcut then applies identically to the delta path
// and the full baseline, keeping the series a pure κ/λ comparison instead
// of a measurement of the (shared, size-parity-driven) minimality sweep.
func churnBatch(size int) [2][]lhg.Change {
	size = (size + 3) / 4 * 4
	leaves := make([]lhg.Change, size)
	joins := make([]lhg.Change, size)
	for i := range leaves {
		leaves[i] = lhg.ChangeLeave
		joins[i] = lhg.ChangeJoin
	}
	return [2][]lhg.Change{leaves, joins}
}

// benchmarkFloodCost covers E29: one reliable broadcast over a lossy
// KDIAMOND(16,4) loopback-TCP cluster, with and without the ampguard
// enforcement plan. ns/op is dominated by recovery latency; the artifact
// the pair exists for is frames/op (originals + retransmissions) against
// the analyzer's static ceiling, reported as extra benchmark metrics.
func benchmarkFloodCost(b *testing.B, guarded bool) {
	g := buildOrFatal(b, lhg.KDiamond, 16, 4)
	policy := lhg.RetryPolicy{
		Timeout: 250 * time.Millisecond,
		Base:    3 * time.Millisecond,
		Max:     10 * time.Millisecond,
		Retries: 4,
		Jitter:  0.25,
	}
	report, err := lhg.FloodBudget(context.Background(), g, 0, 4, policy)
	if err != nil {
		b.Fatal(err)
	}
	opts := netflood.Options{
		Reliable:       true,
		WriteTimeout:   policy.Timeout,
		RetransmitBase: policy.Base,
		RetransmitMax:  policy.Max,
		MaxRetries:     policy.Retries,
		Seed:           29,
		Faults:         func(int, int) faultnet.Plan { return faultnet.Plan{Drop: 0.25} },
	}
	if guarded {
		gu := report.Guard()
		opts.HopBudget = gu.HopBudget
		opts.RetryBudget = gu.RetryBudget
		opts.RetransmitRate = gu.RetransmitRate
		opts.RetransmitBurst = gu.RetransmitBurst
		opts.PathDiversity = gu.PathDiversity
	}
	all := make([]int, g.Order())
	for v := range all {
		all[v] = v
	}
	lhg.EnableMetrics()
	defer lhg.DisableMetrics()
	lhg.ResetMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := netflood.StartWithOptions(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Broadcast(0, "bench"); err != nil {
			b.Fatal(err)
		}
		if !c.WaitDelivered(all, 1, 15*time.Second) {
			b.Fatal("lossy broadcast did not deliver everywhere")
		}
		// Let the ack/retransmit exchange settle so frames/op prices the
		// whole recovery, not just the time to first delivery.
		time.Sleep(150 * time.Millisecond)
		c.Shutdown()
	}
	b.StopTimer()
	ctr := lhg.MetricsCounters()
	frames := ctr["netflood.frames.sent"] + ctr["netflood.frames.retransmitted"]
	if guarded && frames > int64(b.N)*report.FrameCeiling {
		b.Fatalf("guarded runs spent %d frames over %d broadcasts, ceiling %d each",
			frames, b.N, report.FrameCeiling)
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
	b.ReportMetric(float64(report.FrameCeiling), "ceiling/op")
	sinkInt = int(frames)
}

// BenchmarkFloodCostGuarded covers E29 guarded: the ampguard plan enforced.
func BenchmarkFloodCostGuarded(b *testing.B) { benchmarkFloodCost(b, true) }

// BenchmarkFloodCostUnguarded covers E29 unguarded: the same storm, no caps.
func BenchmarkFloodCostUnguarded(b *testing.B) { benchmarkFloodCost(b, false) }
