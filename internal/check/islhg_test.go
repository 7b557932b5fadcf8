package check_test

import (
	"context"
	"testing"

	"lhg"
	"lhg/internal/check"
	"lhg/internal/graph"
)

// TestQuickVerifyAgreesWithVerify pins the boolean verdict lhg.IsLHG
// returns to the full report of Verify on the same graph: IsLHG must
// answer Report.IsLHG() on every row, members and non-members alike.
func TestQuickVerifyAgreesWithVerify(t *testing.T) {
	cycle := func(n int) *graph.Builder {
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.MustAddEdge(v, (v+1)%n)
		}
		return b
	}
	complete := graph.NewBuilder(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			complete.MustAddEdge(u, v)
		}
	}
	petersen := graph.NewBuilder(10)
	for v := 0; v < 5; v++ {
		petersen.MustAddEdge(v, (v+1)%5)     // outer cycle
		petersen.MustAddEdge(5+v, 5+(v+2)%5) // inner pentagram
		petersen.MustAddEdge(v, 5+v)         // spokes
	}
	chorded := cycle(8)
	chorded.MustAddEdge(0, 4)
	tests := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{name: "petersen", g: petersen.Freeze(), k: 3},
		{name: "K6", g: complete.Freeze(), k: 5},
		{name: "C8 with chord", g: chorded.Freeze(), k: 2},
		{name: "underconnected", g: cycle(6).Freeze(), k: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := check.Verify(context.Background(), tt.g, tt.k, check.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ok, err := lhg.IsLHG(context.Background(), tt.g, tt.k)
			if err != nil {
				t.Fatal(err)
			}
			if ok != r.IsLHG() {
				t.Fatalf("IsLHG=%t, Verify.IsLHG=%t (%s)", ok, r.IsLHG(), r)
			}
		})
	}
}
