package classic

import (
	"context"
	"testing"

	"lhg/internal/check"
	"lhg/internal/flow"
)

func TestHypercubeStructure(t *testing.T) {
	for d := 2; d <= 6; d++ {
		g, err := Hypercube(d)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 << d
		if g.Order() != n {
			t.Fatalf("Q%d has %d nodes", d, g.Order())
		}
		if !g.IsRegular(d) {
			t.Fatalf("Q%d must be %d-regular", d, d)
		}
		if got := g.Diameter(); got != d {
			t.Fatalf("diam(Q%d) = %d, want %d", d, got, d)
		}
	}
}

func TestHypercubeConnectivity(t *testing.T) {
	for d := 2; d <= 4; d++ {
		g, err := Hypercube(d)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := flow.VertexConnectivity(context.Background(), g, 1, flow.NoHints); got != d {
			t.Fatalf("κ(Q%d) = %d, want %d", d, got, d)
		}
	}
}

func TestHypercubeIsLHGForItsPair(t *testing.T) {
	// Q_4: (16, 4) — a valid LHG witness for exactly that pair.
	g, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := check.Verify(context.Background(), g, 4, check.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsLHG() {
		t.Fatalf("Q4 must satisfy the LHG properties for (16,4): %s", r)
	}
}

func TestHypercubeErrors(t *testing.T) {
	if _, err := Hypercube(0); err == nil {
		t.Fatal("d=0 must error")
	}
	if _, err := Hypercube(25); err == nil {
		t.Fatal("huge d must error")
	}
}

func TestHypercubeExists(t *testing.T) {
	tests := []struct {
		n, k int
		want bool
	}{
		{n: 16, k: 4, want: true},
		{n: 8, k: 3, want: true},
		{n: 16, k: 3, want: false},
		{n: 20, k: 4, want: false},
		{n: 2, k: 1, want: true},
	}
	for _, tt := range tests {
		if got := HypercubeExists(tt.n, tt.k); got != tt.want {
			t.Fatalf("HypercubeExists(%d,%d) = %t", tt.n, tt.k, got)
		}
	}
}

func TestCCCStructure(t *testing.T) {
	for d := 3; d <= 5; d++ {
		g, err := CCC(d)
		if err != nil {
			t.Fatal(err)
		}
		if g.Order() != d*(1<<d) {
			t.Fatalf("CCC(%d) has %d nodes", d, g.Order())
		}
		if !g.IsRegular(3) {
			t.Fatalf("CCC(%d) must be 3-regular", d)
		}
		if !g.Connected() {
			t.Fatalf("CCC(%d) disconnected", d)
		}
	}
}

func TestCCCConnectivity(t *testing.T) {
	g, err := CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := flow.VertexConnectivity(context.Background(), g, 1, flow.NoHints); got != 3 {
		t.Fatalf("κ(CCC(3)) = %d, want 3", got)
	}
}

func TestCCCErrors(t *testing.T) {
	if _, err := CCC(2); err == nil {
		t.Fatal("d=2 must error")
	}
}

func TestCCCExists(t *testing.T) {
	if !CCCExists(24, 3) { // d=3: 3*8
		t.Fatal("CCC exists at (24,3)")
	}
	if !CCCExists(64, 3) { // d=4: 4*16
		t.Fatal("CCC exists at (64,3)")
	}
	if CCCExists(30, 3) || CCCExists(24, 4) {
		t.Fatal("false positives")
	}
}

func TestDeBruijnStructure(t *testing.T) {
	g, err := DeBruijn(2, 4) // 16 nodes, degree <= 4, κ = 2
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != 16 {
		t.Fatalf("UB(2,4) has %d nodes", g.Order())
	}
	minDeg, _ := g.MinDegree()
	if minDeg != 2 {
		t.Fatalf("UB(2,4) min degree %d, want 2b-2 = 2", minDeg)
	}
	if got, _ := flow.VertexConnectivity(context.Background(), g, 1, flow.NoHints); got != 2 {
		t.Fatalf("κ(UB(2,4)) = %d, want 2", got)
	}
	// Logarithmic diameter: at most d.
	if diam := g.Diameter(); diam > 4 {
		t.Fatalf("diam(UB(2,4)) = %d > d", diam)
	}
}

func TestDeBruijnBaseThree(t *testing.T) {
	g, err := DeBruijn(3, 3) // 27 nodes, κ = 4
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := flow.VertexConnectivity(context.Background(), g, 1, flow.NoHints); got != 4 {
		t.Fatalf("κ(UB(3,3)) = %d, want 2b-2 = 4", got)
	}
}

func TestDeBruijnErrors(t *testing.T) {
	if _, err := DeBruijn(1, 3); err == nil {
		t.Fatal("base 1 must error")
	}
	if _, err := DeBruijn(2, 1); err == nil {
		t.Fatal("d=1 must error")
	}
	if _, err := DeBruijn(8, 30); err == nil {
		t.Fatal("overflow must error")
	}
}

func TestDeBruijnExists(t *testing.T) {
	tests := []struct {
		n, k int
		want bool
	}{
		{n: 16, k: 2, want: true},  // b=2, d=4
		{n: 27, k: 4, want: true},  // b=3, d=3
		{n: 27, k: 3, want: false}, // odd k
		{n: 26, k: 4, want: false},
		{n: 8, k: 2, want: true}, // b=2, d=3
	}
	for _, tt := range tests {
		if got := DeBruijnExists(tt.n, tt.k); got != tt.want {
			t.Fatalf("DeBruijnExists(%d,%d) = %t, want %t", tt.n, tt.k, got, tt.want)
		}
	}
}
