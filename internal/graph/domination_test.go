package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomDomGraph(seed int64, n, percent int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(100) < percent {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Freeze()
}

// TestDominatingSetCovers asserts the defining property on random graphs of
// every density: each node is a member or adjacent to one. Isolated nodes
// must always be members — nothing else can cover them.
func TestDominatingSetCovers(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		n := 1 + int(seed)*3%40
		g := randomDomGraph(seed, n, int(seed*7%101))
		set := g.DominatingSet()
		member := make([]bool, n)
		for _, v := range set {
			if v < 0 || v >= n {
				t.Fatalf("seed=%d: member %d out of range", seed, v)
			}
			if member[v] {
				t.Fatalf("seed=%d: member %d repeated", seed, v)
			}
			member[v] = true
		}
		for v := 0; v < n; v++ {
			covered := member[v]
			for _, w := range g.Neighbors(v) {
				covered = covered || member[w]
			}
			if !covered {
				t.Fatalf("seed=%d n=%d: node %d is neither a member nor adjacent to one", seed, n, v)
			}
			if g.Degree(v) == 0 && !member[v] {
				t.Fatalf("seed=%d: isolated node %d not in the set", seed, v)
			}
		}
	}
}

// TestDominatingSetDeterministic pins reproducibility (the Matula λ pass
// must probe the same pairs run to run) and the greedy-scan shape: members
// arrive in increasing order, and node 0 is always first on any non-empty
// graph.
func TestDominatingSetDeterministic(t *testing.T) {
	g := randomDomGraph(11, 30, 20)
	first := g.DominatingSet()
	if len(first) == 0 || first[0] != 0 {
		t.Fatalf("greedy scan must admit node 0 first, got %v", first)
	}
	for i := 1; i < len(first); i++ {
		if first[i] <= first[i-1] {
			t.Fatalf("members not in scan order: %v", first)
		}
	}
	for i := 0; i < 5; i++ {
		if again := g.DominatingSet(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d diverged: %v vs %v", i, again, first)
		}
	}
	if set := NewBuilder(0).Freeze().DominatingSet(); len(set) != 0 {
		t.Fatalf("empty graph produced a non-empty dominating set: %v", set)
	}
}
