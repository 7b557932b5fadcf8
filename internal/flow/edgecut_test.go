package flow

import (
	"testing"
	"testing/quick"

	"lhg/internal/graph"
)

func TestMinEdgeCutSetBridge(t *testing.T) {
	g := twoTriangles()
	cut, err := MinEdgeCutSet(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 1 || (cut[0] != graph.Edge{U: 2, V: 3}) {
		t.Fatalf("cut = %v, want the bridge (2,3)", cut)
	}
}

func TestMinEdgeCutSetErrors(t *testing.T) {
	g := cycle(4)
	if _, err := MinEdgeCutSet(g, 0, 0); err == nil {
		t.Fatal("identical endpoints must error")
	}
	if _, err := MinEdgeCutSet(g, -1, 2); err == nil {
		t.Fatal("out of range must error")
	}
}

func TestGlobalMinEdgeCutSetCycle(t *testing.T) {
	g := cycle(8)
	cut, err := GlobalMinEdgeCutSet(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 2 {
		t.Fatalf("global cut of a cycle has %d edges, want 2", len(cut))
	}
	h := g
	for _, e := range cut {
		h = h.WithoutEdge(e.U, e.V)
	}
	if h.Connected() {
		t.Fatal("removing the global cut must disconnect the cycle")
	}
}

func TestGlobalMinEdgeCutSetErrors(t *testing.T) {
	if _, err := GlobalMinEdgeCutSet(graph.New(1)); err == nil {
		t.Fatal("singleton graph must error")
	}
}

func TestGlobalMinEdgeCutDisconnected(t *testing.T) {
	cut, err := GlobalMinEdgeCutSet(graph.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 0 {
		t.Fatalf("already-disconnected graph needs an empty cut, got %v", cut)
	}
}

func TestPropertyEdgeCutSetMatchesValueAndDisconnects(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 3
		g := randomGraph(n, uint64(seed))
		for s := 0; s < n; s++ {
			for t2 := s + 1; t2 < n; t2++ {
				want, err := EdgeCut(g, s, t2)
				if err != nil {
					return false
				}
				cut, err := MinEdgeCutSet(g, s, t2)
				if err != nil || len(cut) != want {
					return false
				}
				h := g
				for _, e := range cut {
					if !h.HasEdge(e.U, e.V) {
						return false
					}
					h = h.WithoutEdge(e.U, e.V)
				}
				if want > 0 && h.BFSFrom(s)[t2] >= 0 {
					return false // cut failed to separate
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGlobalEdgeCutMatchesConnectivity(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		g := randomGraph(n, uint64(seed))
		cut, err := GlobalMinEdgeCutSet(g)
		if err != nil {
			return false
		}
		if len(cut) != lambdaOf(g) {
			return false
		}
		if len(cut) == 0 {
			return true
		}
		h := g
		for _, e := range cut {
			h = h.WithoutEdge(e.U, e.V)
		}
		return !h.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCutpointsConsistentWithFlow: Tarjan low-link results and
// max-flow connectivity must tell the same story on random graphs —
// κ >= 2 iff no articulation point (for connected graphs with >= 3 nodes),
// λ >= 2 iff no bridge.
func TestPropertyCutpointsConsistentWithFlow(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%10) + 3
		g := randomGraph(n, uint64(seed))
		if !g.Connected() {
			return true
		}
		kappa2 := kappaOf(g) >= 2
		if kappa2 != (len(articulationPoints(g)) == 0) {
			return false
		}
		lambda2 := lambdaOf(g) >= 2
		return lambda2 == (len(bridges(g)) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
