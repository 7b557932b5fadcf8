package flow

import (
	"testing"

	"lhg/internal/graph"
)

// gnp returns a seeded G(n, p) sample with edge probability p = num/16,
// so one seed stream covers sparse graphs with cut vertices and small
// separators as well as near-complete ones.
func gnp(n int, num uint64, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	state := seed*0x9e3779b97f4a7c15 | 1
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			if state%16 < num {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Freeze()
}

// TestVertexConnectivityMatchesNaive is the differential behind the κ
// sweep's probe set: Esfahanian–Hakimi with the independent-set cut of
// vertexProbePairs must equal the all-pairs definition on thousands of
// seeded random graphs, for every worker count (parallel sweeps run with
// stale early-exit limits). The race detector slows the all-pairs oracle
// ~25×, and the data races it looks for do not depend on how many graphs
// run, so a -race build checks the first tenth of the stream.
func TestVertexConnectivityMatchesNaive(t *testing.T) {
	graphs := uint64(5000)
	if raceEnabled {
		graphs = 500
	}
	for i := uint64(0); i < graphs; i++ {
		n := 4 + int(i%18)   // 4..21
		num := 2 + (i/18)%13 // p from 2/16 to 14/16
		g := gnp(n, num, i+1)
		want := naiveVertexConnectivity(g)
		for workers := 1; workers <= 3; workers++ {
			if got := kappaWith(g, workers); got != want {
				t.Fatalf("graph %d (n=%d, p=%d/16), workers=%d: κ=%d, all-pairs κ=%d\nedges: %v",
					i, n, num, workers, got, want, g.Edges())
			}
		}
	}
}

// decodeGraph reads a small graph from fuzz bytes: the first byte picks
// n in [2, 17], the following bits (LSB first) say, pair by pair in
// (u, v) order, whether the edge u-v is present. Missing bits are absent
// edges.
func decodeGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.NewBuilder(2).Freeze()
	}
	n := 2 + int(data[0]%16)
	bits := data[1:]
	b := graph.NewBuilder(n)
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if i/8 < len(bits) && bits[i/8]>>(i%8)&1 == 1 {
				b.MustAddEdge(u, v)
			}
			i++
		}
	}
	return b.Freeze()
}

// FuzzVertexConnectivityNaive compares VertexConnectivity, serial and
// with two workers, against the all-pairs κ on graphs decoded from the
// fuzz input.
func FuzzVertexConnectivityNaive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0xff, 0xff})                   // K6
	f.Add([]byte{6, 0x49, 0x92, 0x24, 0x49, 0x92}) // sparse, 8 nodes
	f.Add([]byte{10, 0x0f, 0xf0, 0x33, 0xcc, 0x55, 0xaa, 0x96, 0x69})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		want := naiveVertexConnectivity(g)
		for workers := 1; workers <= 2; workers++ {
			if got := kappaWith(g, workers); got != want {
				t.Fatalf("workers=%d: κ=%d, all-pairs κ=%d\nn=%d edges: %v",
					workers, got, want, g.Order(), g.Edges())
			}
		}
	})
}
