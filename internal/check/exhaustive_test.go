package check

import (
	"context"
	"testing"

	"lhg/internal/graph"
)

// Differential testing of the full verifier against brute force on every
// graph of up to 6 nodes (up to isomorphism-free enumeration is overkill;
// we enumerate labeled graphs on 5 nodes exhaustively and sample 6-node
// ones by bitmask stride). Each property is recomputed from first
// principles: connectivity by subset removal, minimality by single-edge
// deletion, diameter by BFS.

// buildFromMask decodes a labeled graph on n nodes from an edge bitmask.
func buildFromMask(n int, mask uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask&(1<<bit) != 0 {
				b.MustAddEdge(u, v)
			}
			bit++
		}
	}
	return b.Freeze()
}

func bruteKappa(g *graph.Graph) int {
	n := g.Order()
	if n < 2 || !g.Connected() {
		return 0
	}
	removed := make([]bool, n)
	disconnects := func(size int) bool {
		var r func(start, left int) bool
		r = func(start, left int) bool {
			if left == 0 {
				return !g.ConnectedIgnoring(removed)
			}
			for v := start; v <= n-left; v++ {
				removed[v] = true
				if r(v+1, left-1) {
					removed[v] = false
					return true
				}
				removed[v] = false
			}
			return false
		}
		return r(0, size)
	}
	for size := 1; size <= n-2; size++ {
		if disconnects(size) {
			return size
		}
	}
	return n - 1
}

func bruteLambda(g *graph.Graph) int {
	if g.Order() < 2 || !g.Connected() {
		return 0
	}
	edges := g.Edges()
	var rec func(b *graph.Builder, start, left int) bool
	rec = func(b *graph.Builder, start, left int) bool {
		if left == 0 {
			return !b.Freeze().Connected()
		}
		for i := start; i <= len(edges)-left; i++ {
			b.RemoveEdge(edges[i].U, edges[i].V)
			if rec(b, i+1, left-1) {
				b.MustAddEdge(edges[i].U, edges[i].V)
				return true
			}
			b.MustAddEdge(edges[i].U, edges[i].V)
		}
		return false
	}
	for size := 1; size <= len(edges); size++ {
		if rec(g.Thaw(), 0, size) {
			return size
		}
	}
	return len(edges)
}

func bruteMinimal(g *graph.Graph, kappa, lambda int) bool {
	if kappa == 0 {
		return false
	}
	for _, e := range g.Edges() {
		h := g.WithoutEdge(e.U, e.V)
		if bruteKappa(h) >= kappa && bruteLambda(h) >= lambda {
			return false
		}
	}
	return true
}

func TestVerifyExhaustiveFiveNodes(t *testing.T) {
	const n = 5
	edgesMax := n * (n - 1) / 2 // 10 -> 1024 graphs
	for mask := uint64(0); mask < 1<<edgesMax; mask++ {
		g := buildFromMask(n, mask)
		if g.Size() < n-1 {
			continue // cannot be connected; verifier covered by other tests
		}
		r, err := Verify(context.Background(), g, 1, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantKappa := bruteKappa(g)
		wantLambda := bruteLambda(g)
		if r.NodeConnectivity != wantKappa {
			t.Fatalf("mask %d: κ=%d, brute %d", mask, r.NodeConnectivity, wantKappa)
		}
		if r.EdgeConnectivity != wantLambda {
			t.Fatalf("mask %d: λ=%d, brute %d", mask, r.EdgeConnectivity, wantLambda)
		}
		if want := bruteMinimal(g, wantKappa, wantLambda); r.LinkMinimal != want {
			t.Fatalf("mask %d: minimal=%t, brute %t (κ=%d λ=%d m=%d)",
				mask, r.LinkMinimal, want, wantKappa, wantLambda, g.Size())
		}
	}
}

func TestVerifySampledSixNodes(t *testing.T) {
	const n = 6
	edgesMax := n * (n - 1) / 2 // 15 -> 32768 graphs; stride-sample
	for mask := uint64(0); mask < 1<<edgesMax; mask += 97 {
		g := buildFromMask(n, mask)
		if !g.Connected() {
			continue
		}
		r, err := Verify(context.Background(), g, 1, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.NodeConnectivity != bruteKappa(g) || r.EdgeConnectivity != bruteLambda(g) {
			t.Fatalf("mask %d: κ/λ mismatch", mask)
		}
	}
}
