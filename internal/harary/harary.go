// Package harary constructs the classic Harary graphs H(k,n) (F. Harary,
// "The maximum connectivity of a graph", 1962): the k-connected graphs on n
// nodes with the minimum possible number of edges, ⌈kn/2⌉.
//
// Classic Harary graphs are circulants (plus one adjustment edge set for odd
// k and odd n) and have *linear* diameter ~n/(2⌊k/2⌋). They are the baseline
// the Logarithmic Harary Graph papers improve on: LHGs keep the connectivity
// and near-minimal edge count while reducing the diameter to O(log n).
package harary

import (
	"fmt"

	"lhg/internal/graph"
)

// Build returns the classic Harary graph H(k,n). It requires 2 <= k < n.
//
// Construction (Harary 1962):
//   - k = 2r: circulant C_n(1..r).
//   - k = 2r+1, n even: circulant C_n(1..r) plus all diameters v—v+n/2.
//   - k = 2r+1, n odd: circulant C_n(1..r) plus the edges
//     v—v+(n-1)/2 for v in 0..(n-1)/2 and additionally 0—(n+1)/2.
func Build(n, k int) (*graph.Graph, error) {
	if k < 2 {
		return nil, fmt.Errorf("harary: k=%d must be >= 2", k)
	}
	if n <= k {
		return nil, fmt.Errorf("harary: need n > k, got n=%d k=%d", n, k)
	}
	b := graph.NewBuilder(n)
	r := k / 2
	for v := 0; v < n; v++ {
		for d := 1; d <= r; d++ {
			b.MustAddEdge(v, (v+d)%n)
		}
	}
	if k%2 == 1 {
		if n%2 == 0 {
			for v := 0; v < n/2; v++ {
				b.MustAddEdge(v, v+n/2)
			}
		} else {
			half := (n - 1) / 2
			for v := 0; v <= half; v++ {
				b.MustAddEdge(v, (v+half)%n)
			}
		}
	}
	return b.Freeze(), nil
}

// EdgeCount returns the number of edges of H(k,n), ⌈kn/2⌉.
func EdgeCount(n, k int) int { return (k*n + 1) / 2 }
