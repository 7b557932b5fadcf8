package graph

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// refDistanceStats is the scalar oracle for the lane kernel: one textbook
// queue BFS per source, sharing no code with the package's traversals.
func refDistanceStats(g *Graph) (diam int, avg float64) {
	n := g.Order()
	if n == 0 {
		return -1, -1
	}
	var total int64
	dist := make([]int, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			if d < 0 {
				return -1, -1
			}
			diam = max(diam, d)
			total += int64(d)
		}
	}
	if n < 2 {
		return diam, -1
	}
	return diam, float64(total) / float64(int64(n)*int64(n-1))
}

// randomTreePlus returns a random recursive tree on n nodes plus `extra`
// random chords: connected, with diameters from a few hops to dozens.
func randomTreePlus(rng *rand.Rand, n, extra int) *Graph {
	var es []Edge
	for v := 1; v < n; v++ {
		es = append(es, Edge{U: rng.Intn(v), V: v})
	}
	for i := 0; i < extra && n > 1; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, Edge{U: u, V: v})
		}
	}
	return MustFromEdges(n, es)
}

// pathGraph is the n-node path: one BFS level per hop, the kernel's
// longest possible batch.
func pathGraph(n int) *Graph {
	var es []Edge
	for v := 1; v < n; v++ {
		es = append(es, Edge{U: v - 1, V: v})
	}
	return MustFromEdges(n, es)
}

// twoComponents returns two random trees-plus-chords side by side, split
// at node n/2.
func twoComponents(rng *rand.Rand, n int) *Graph {
	es := randomTreePlus(rng, n/2, n/8).Edges()
	for _, e := range randomTreePlus(rng, n-n/2, n/8).Edges() {
		es = append(es, Edge{U: e.U + n/2, V: e.V + n/2})
	}
	return MustFromEdges(n, es)
}

// isolating returns g with every edge at node v removed.
func isolating(g *Graph, v int) *Graph {
	var es []Edge
	for _, e := range g.Edges() {
		if e.U != v && e.V != v {
			es = append(es, e)
		}
	}
	return MustFromEdges(g.Order(), es)
}

// TestDistanceStatsMatchesReference is the kernel's differential test:
// sizes straddling the 64-bit word and the 256-source batch boundaries,
// connected and disconnected graphs, serial and fanned-out sweeps, all
// bit-identical to the scalar reference.
func TestDistanceStatsMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1025}
	if testing.Short() {
		sizes = []int{0, 1, 2, 63, 64, 65, 257, 513}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		fixtures := map[string]*Graph{
			"tree":     randomTreePlus(rng, n, 0),
			"chords":   randomTreePlus(rng, n, n/4),
			"gnp":      randomGraphP(rng, n, 8/float64(n+8)),
			"path":     pathGraph(n),
			"two-comp": twoComponents(rng, n),
		}
		if n > 1 {
			g := randomTreePlus(rng, n, n/4)
			fixtures["isolated-last"] = isolating(g, n-1)
			fixtures["isolated-first"] = isolating(g, 0)
		}
		for name, g := range fixtures {
			wantDiam, wantAvg := refDistanceStats(g)
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("n=%d/%s/workers=%d", n, name, workers), func(t *testing.T) {
					diam, avg, err := g.DistanceStatsCtx(context.Background(), workers)
					if err != nil {
						t.Fatal(err)
					}
					if diam != wantDiam || avg != wantAvg {
						t.Fatalf("DistanceStatsCtx = (%d, %v), reference (%d, %v)", diam, avg, wantDiam, wantAvg)
					}
				})
			}
			if d, a := g.Diameter(), g.AvgPathLength(); d != wantDiam || a != wantAvg {
				t.Fatalf("n=%d/%s: Diameter, AvgPathLength = (%d, %v), reference (%d, %v)", n, name, d, a, wantDiam, wantAvg)
			}
		}
	}
}
