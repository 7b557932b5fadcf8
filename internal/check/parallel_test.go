package check

import (
	"context"
	"testing"

	"lhg/internal/graph"
)

// reportsEqual compares every exported field of two reports.
func reportsEqual(a, b *Report) bool {
	return a.N == b.N && a.M == b.M && a.K == b.K &&
		a.NodeConnectivity == b.NodeConnectivity &&
		a.EdgeConnectivity == b.EdgeConnectivity &&
		a.KNodeConnected == b.KNodeConnected &&
		a.KLinkConnected == b.KLinkConnected &&
		a.LinkMinimal == b.LinkMinimal &&
		a.ViolatingEdge == b.ViolatingEdge &&
		a.Diameter == b.Diameter &&
		a.DiameterBound == b.DiameterBound &&
		a.LogDiameter == b.LogDiameter &&
		a.Regular == b.Regular &&
		a.MinDegree == b.MinDegree &&
		a.MaxDegree == b.MaxDegree &&
		a.AvgPathLen == b.AvgPathLen
}

// TestVerifyParallelMatchesSerial runs the parallel verifier with 8 workers
// over fixtures covering every branch — regular LHG witnesses, irregular
// P3-violating graphs, underconnected and disconnected graphs — and
// requires bit-identical reports, including the P3 witness edge.
func TestVerifyParallelMatchesSerial(t *testing.T) {
	fixtures := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{name: "petersen", g: petersen(), k: 3},
		{name: "K6", g: complete(6), k: 5},
		{name: "chorded cycle", g: chorded(), k: 2},
		{name: "underconnected", g: cycle(6), k: 3},
		{name: "disconnected", g: graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}}), k: 1},
		{name: "random irregular", g: randomGraph(16, 7), k: 1},
	}
	for _, tt := range fixtures {
		t.Run(tt.name, func(t *testing.T) {
			serial, err := Verify(context.Background(), tt.g, tt.k, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Verify(context.Background(), tt.g, tt.k, Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reportsEqual(serial, par) {
				t.Fatalf("parallel report differs:\nserial:   %s\nparallel: %s", serial, par)
			}
			_, sOK := serial.Violation()
			_, pOK := par.Violation()
			if sOK != pOK {
				t.Fatalf("violation flags differ: serial=%t parallel=%t", sOK, pOK)
			}
		})
	}
}

func TestVerifyParallelRandomSweep(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		g := randomGraph(12, seed)
		serial, err := Verify(context.Background(), g, 1, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Verify(context.Background(), g, 1, Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reportsEqual(serial, par) {
			t.Fatalf("seed %d: parallel report differs:\nserial:   %s\nparallel: %s",
				seed, serial, par)
		}
	}
}

func TestVerifyParallelArgumentErrors(t *testing.T) {
	g := cycle(5)
	if _, err := Verify(context.Background(), g, 0, Options{Workers: 8}); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := Verify(context.Background(), g, 5, Options{Workers: 8}); err == nil {
		t.Fatal("k=n must be rejected")
	}
}
