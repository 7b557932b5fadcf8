package check

import (
	"context"
	"reflect"
	"testing"

	"lhg/internal/graph"
)

// Differential fuzzing of the worker fan-out: for every generated
// (n, k, seed, mutations) input the Report must be bit-identical whether
// Verify runs serially or across workers. This is the enforcement of the
// contract stated on Verify — the worker count changes no value, no
// verdict and no P3 witness — over a randomized graph space that includes
// disconnected, multi-component, irregular and complete graphs.

// fuzzGraph decodes a graph from the fuzz input: a seeded G(n, p) draw
// (the density in per-mille comes from seed%1201, so seeds >= 1000 mod
// 1201 yield complete graphs and seed 0 the empty one), followed by edge
// toggles taken pairwise from mut. Everything is deterministic in the
// inputs.
func fuzzGraph(n int, seed uint64, mut []byte) *graph.Graph {
	density := seed % 1201
	state := seed
	next := func() uint64 { // splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next()%1000 < density {
				b.MustAddEdge(u, v)
			}
		}
	}
	for i := 0; i+1 < len(mut); i += 2 {
		u, v := int(mut[i])%n, int(mut[i+1])%n
		if u == v {
			continue
		}
		if b.HasEdge(u, v) {
			b.RemoveEdge(u, v)
		} else {
			b.MustAddEdge(u, v)
		}
	}
	return b.Freeze()
}

// coreReport is the comparable projection of a Report: every reported
// value and verdict, excluding only the run descriptors that legitimately
// differ between configurations (worker count, phase timings).
type coreReport struct {
	N, M, K        int
	Kappa, Lambda  int
	P1, P2, P3, P4 bool
	Regular        bool
	Viol           graph.Edge
	HasViol        bool
	Diam, Bound    int
	MinDeg, MaxDeg int
	AvgPathLen     float64
}

func reportCore(r *Report) coreReport {
	viol, hasViol := r.Violation()
	return coreReport{
		N: r.N, M: r.M, K: r.K,
		Kappa: r.NodeConnectivity, Lambda: r.EdgeConnectivity,
		P1: r.KNodeConnected, P2: r.KLinkConnected,
		P3: r.LinkMinimal, P4: r.LogDiameter, Regular: r.Regular,
		Viol: viol, HasViol: hasViol,
		Diam: r.Diameter, Bound: r.DiameterBound,
		MinDeg: r.MinDegree, MaxDeg: r.MaxDegree,
		AvgPathLen: r.AvgPathLen,
	}
}

func FuzzVerifyParallelEquivSerial(f *testing.F) {
	f.Add(8, 1, uint64(600), []byte(""))                          // k=1, mid density
	f.Add(6, 5, uint64(1200), []byte(""))                         // complete K6, k=n-1
	f.Add(10, 2, uint64(0), []byte(""))                           // empty: disconnected
	f.Add(4, 1, uint64(1200), []byte("\x00\x01\x00\x02\x00\x03")) // K4 minus node 0's edges: two components
	f.Add(12, 3, uint64(400), []byte("\x01\x05\x02\x09"))         // irregular with toggles
	// Near-critical cut: a dense draw thinned across the middle.
	f.Add(10, 2, uint64(900), []byte("\x00\x05\x00\x06\x01\x05\x01\x06\x02\x05\x02\x06"))
	f.Fuzz(func(t *testing.T, n, k int, seed uint64, mut []byte) {
		if n < 3 || n > 16 {
			n = 3 + ((n%14)+14)%14
		}
		if k < 1 || k >= n {
			k = 1 + ((k%(n-1))+(n-1))%(n-1)
		}
		g := fuzzGraph(n, seed, mut)
		ctx := context.Background()
		ref, err := Verify(ctx, g, k, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := reportCore(ref)
		for _, opt := range []Options{{Workers: 2}, {Workers: 3}, {Workers: 4}} {
			r, err := Verify(ctx, g, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportCore(r); got != want {
				t.Fatalf("n=%d k=%d seed=%d mut=%x: report diverged under %+v:\n got %+v\nwant %+v",
					n, k, seed, mut, opt, got, want)
			}
		}
	})
}

// FuzzVerifyDeltaEquivFull is the differential guard on the incremental
// path: for every generated (base graph, churn script) pair, the report
// DeltaVerifier.Advance produces from the base graph's epoch and the delta
// must be bit-identical to a fresh full verification of the patched graph —
// whichever of the fast path or the fallback fires. The churn script is
// decoded into a valid EdgeDelta: the first byte picks the new order
// (growth, shrink or in-place), departures are torn down completely, and
// the remaining byte pairs toggle survivor/new-node edges.
func FuzzVerifyDeltaEquivFull(f *testing.F) {
	f.Add(10, 3, uint64(700), []byte(""))                     // no churn: identity delta
	f.Add(10, 3, uint64(700), []byte("\x0d\x0a\x0b\x0a\x0c")) // growth with leaf wiring
	f.Add(14, 3, uint64(900), []byte("\x02"))                 // deep shrink, heavy teardown
	f.Add(12, 2, uint64(400), []byte("\x09\x00\x01\x02\x03")) // in-place rewiring (damage)
	f.Add(8, 4, uint64(1200), []byte("\x05\x00\x01\x00\x02")) // dense base, shrink + cuts
	f.Fuzz(func(t *testing.T, n, k int, seed uint64, churn []byte) {
		if n < 3 || n > 16 {
			n = 3 + ((n%14)+14)%14
		}
		g := fuzzGraph(n, seed, nil)
		n2 := n
		if len(churn) > 0 {
			n2 = 3 + int(churn[0])%14
			churn = churn[1:]
		}
		if k < 1 || k >= n || k >= n2 {
			m := n
			if n2 < m {
				m = n2
			}
			k = 1 + ((k%(m-1))+(m-1))%(m-1)
		}
		ctx := context.Background()
		dv, err := NewDeltaVerifier(ctx, g, k, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var d graph.EdgeDelta
		seen := make(map[graph.Edge]bool)
		mark := func(u, v int) bool {
			if u > v {
				u, v = v, u
			}
			e := graph.Edge{U: u, V: v}
			if seen[e] {
				return false
			}
			seen[e] = true
			return true
		}
		// Departures must end isolated: tear down every live link first.
		for v := n2; v < n; v++ {
			g.EachNeighbor(v, func(nb int) {
				if mark(v, nb) {
					d.Removed = append(d.Removed, graph.Edge{U: v, V: nb})
				}
			})
		}
		for i := 0; i+1 < len(churn); i += 2 {
			u, v := int(churn[i])%n2, int(churn[i+1])%n2
			if u == v || !mark(u, v) {
				continue
			}
			if u < n && v < n && g.HasEdge(u, v) {
				d.Removed = append(d.Removed, graph.Edge{U: u, V: v})
			} else {
				d.Added = append(d.Added, graph.Edge{U: u, V: v})
			}
		}
		d.Normalize()
		got, err := dv.Advance(ctx, d, n2)
		if err != nil {
			t.Fatal(err)
		}
		next, err := g.ApplyDelta(d, n2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Verify(ctx, next, k, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		g2, w2 := *got, *want
		g2.Phases, w2.Phases = nil, nil
		if !reflect.DeepEqual(&g2, &w2) {
			t.Fatalf("n=%d->%d k=%d seed=%d churn=%x: delta report %s differs from full verify %s",
				n, n2, k, seed, churn, got, want)
		}
	})
}
