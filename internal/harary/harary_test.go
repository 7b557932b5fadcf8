package harary

import (
	"context"
	"testing"

	"lhg/internal/flow"
	"lhg/internal/graph"
)

func TestBuildArgumentErrors(t *testing.T) {
	tests := []struct {
		name string
		n, k int
	}{
		{name: "k too small", n: 10, k: 1},
		{name: "n == k", n: 4, k: 4},
		{name: "n < k", n: 3, k: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(tt.n, tt.k); err == nil {
				t.Fatalf("Build(%d,%d) succeeded, want error", tt.n, tt.k)
			}
		})
	}
}

func TestEdgeCountFormula(t *testing.T) {
	for _, tt := range []struct{ n, k, want int }{
		{n: 8, k: 4, want: 16},
		{n: 9, k: 3, want: 14}, // ⌈27/2⌉
		{n: 10, k: 3, want: 15},
		{n: 7, k: 2, want: 7},
	} {
		if got := EdgeCount(tt.n, tt.k); got != tt.want {
			t.Fatalf("EdgeCount(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBuildMatchesEdgeCount(t *testing.T) {
	for k := 2; k <= 6; k++ {
		for n := k + 1; n <= 24; n++ {
			g, err := Build(n, k)
			if err != nil {
				t.Fatalf("Build(%d,%d): %v", n, k, err)
			}
			if g.Size() != EdgeCount(n, k) {
				t.Fatalf("H(%d,%d) has %d edges, want %d", k, n, g.Size(), EdgeCount(n, k))
			}
		}
	}
}

func TestBuildIsExactlyKConnected(t *testing.T) {
	// Harary's theorem: H(k,n) achieves κ = λ = k with ⌈kn/2⌉ edges.
	for k := 2; k <= 5; k++ {
		for n := k + 2; n <= 16; n++ {
			g, err := Build(n, k)
			if err != nil {
				t.Fatalf("Build(%d,%d): %v", n, k, err)
			}
			if got, _ := flow.VertexConnectivity(context.Background(), g, 1, flow.NoHints); got != k {
				t.Fatalf("κ(H(%d,%d)) = %d, want %d", k, n, got, k)
			}
			if got, _ := flow.EdgeConnectivity(context.Background(), g, 1, flow.NoHints); got != k {
				t.Fatalf("λ(H(%d,%d)) = %d, want %d", k, n, got, k)
			}
		}
	}
}

func TestBuildRegularWhenEven(t *testing.T) {
	// H(k,n) is k-regular exactly when k·n is even; otherwise one node has
	// degree k+1.
	for k := 2; k <= 5; k++ {
		for n := k + 1; n <= 20; n++ {
			g, err := Build(n, k)
			if err != nil {
				t.Fatal(err)
			}
			minDeg, _ := g.MinDegree()
			maxDeg, _ := g.MaxDegree()
			if minDeg != k {
				t.Fatalf("H(%d,%d) min degree %d, want %d", k, n, minDeg, k)
			}
			if (k*n)%2 == 0 {
				if maxDeg != k {
					t.Fatalf("H(%d,%d) should be regular, max degree %d", k, n, maxDeg)
				}
			} else if maxDeg != k+1 {
				t.Fatalf("H(%d,%d) max degree %d, want k+1=%d", k, n, maxDeg, k+1)
			}
		}
	}
}

func TestLinearDiameterGrowth(t *testing.T) {
	// The defining weakness of classic Harary graphs: diameter grows
	// linearly in n.
	k := 4
	d40, err := diameterOf(40, k)
	if err != nil {
		t.Fatal(err)
	}
	d80, err := diameterOf(80, k)
	if err != nil {
		t.Fatal(err)
	}
	if d80 < 2*d40-2 {
		t.Fatalf("diameter should roughly double: d(40)=%d d(80)=%d", d40, d80)
	}
	// H(k,n) steps ⌊k/2⌋ positions around the ring per hop, so its
	// diameter is about ⌈n/(2·⌊k/2⌋)⌉.
	if est := (80 + 2*(k/2) - 1) / (2 * (k / 2)); d80 > est+2 || d80 < est-2 {
		t.Fatalf("d(80)=%d far from estimate %d", d80, est)
	}
}

func diameterOf(n, k int) (int, error) {
	g, err := Build(n, k)
	if err != nil {
		return 0, err
	}
	return g.Diameter(), nil
}

func TestCirculantStructureEvenK(t *testing.T) {
	g, err := Build(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every node must be adjacent to its ±1 and ±2 neighbors.
	for v := 0; v < 10; v++ {
		for _, d := range []int{1, 2} {
			if !g.HasEdge(v, (v+d)%10) {
				t.Fatalf("missing circulant edge (%d,%d)", v, (v+d)%10)
			}
		}
	}
}

func TestDiametersEdgesOddKEvenN(t *testing.T) {
	g, err := Build(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if !g.HasEdge(v, v+4) {
			t.Fatalf("missing diameter edge (%d,%d)", v, v+4)
		}
	}
	if !g.IsRegular(3) {
		t.Fatal("H(3,8) must be 3-regular")
	}
}

var sinkGraph *graph.Graph

func BenchmarkBuildHarary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := Build(1024, 6)
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}
