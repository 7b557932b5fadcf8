package graph

import (
	"testing"
	"testing/quick"
)

func TestBFSFromDistances(t *testing.T) {
	g := path(5)
	dist := g.BFSFrom(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestBFSFromUnreachable(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}})
	dist := g.BFSFrom(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable distances = %v, want -1", dist[2:])
	}
}

func TestBFSFromOutOfRange(t *testing.T) {
	g := New(3)
	for _, d := range g.BFSFrom(7) {
		if d != -1 {
			t.Fatal("BFS from invalid source must mark everything unreachable")
		}
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{name: "empty", g: New(0), want: true},
		{name: "single", g: New(1), want: true},
		{name: "two isolated", g: New(2), want: false},
		{name: "path", g: path(6), want: true},
		{name: "cycle", g: cycle(6), want: true},
		{name: "broken path", g: brokenPath(6), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Connected(); got != tt.want {
				t.Fatalf("Connected = %t, want %t", got, tt.want)
			}
		})
	}
}

func brokenPath(n int) *Graph {
	return path(n).WithoutEdge(n/2-1, n/2)
}

func TestConnectedIgnoring(t *testing.T) {
	g := path(5) // 0-1-2-3-4
	removed := make([]bool, 5)
	removed[2] = true
	if g.ConnectedIgnoring(removed) {
		t.Fatal("removing the middle of a path must disconnect it")
	}
	removed[2] = false
	removed[0] = true
	if !g.ConnectedIgnoring(removed) {
		t.Fatal("removing an endpoint must keep the path connected")
	}
	all := []bool{true, true, true, true, false}
	if !g.ConnectedIgnoring(all) {
		t.Fatal("a single surviving node is connected by convention")
	}
	everyone := []bool{true, true, true, true, true}
	if !g.ConnectedIgnoring(everyone) {
		t.Fatal("the empty survivor set is vacuously connected")
	}
}

func TestComponents(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {3, 4}})
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4: %v", len(comps), comps)
	}
	if comps[0][0] != 0 || len(comps[0]) != 2 {
		t.Fatalf("first component %v, want [0 1]", comps[0])
	}
}

func TestComponentsDegenerate(t *testing.T) {
	if comps := New(0).Components(); len(comps) != 0 {
		t.Fatalf("empty graph components = %v, want none", comps)
	}
	comps := New(1).Components()
	if len(comps) != 1 || len(comps[0]) != 1 || comps[0][0] != 0 {
		t.Fatalf("single-node components = %v, want [[0]]", comps)
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "path5", g: path(5), want: 4},
		{name: "cycle6", g: cycle(6), want: 3},
		{name: "cycle7", g: cycle(7), want: 3},
		{name: "K5", g: complete(5), want: 1},
		{name: "single node", g: New(1), want: 0},
		{name: "disconnected", g: New(3), want: -1},
		{name: "empty", g: New(0), want: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Fatalf("Diameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEccentricity(t *testing.T) {
	g := path(5)
	ecc, whole := g.Eccentricity(2)
	if !whole || ecc != 2 {
		t.Fatalf("Eccentricity(2) = (%d,%t), want (2,true)", ecc, whole)
	}
	ecc, whole = g.Eccentricity(0)
	if !whole || ecc != 4 {
		t.Fatalf("Eccentricity(0) = (%d,%t), want (4,true)", ecc, whole)
	}
}

func TestAvgPathLength(t *testing.T) {
	g := complete(4)
	if got := g.AvgPathLength(); got != 1.0 {
		t.Fatalf("AvgPathLength(K4) = %v, want 1", got)
	}
	if got := New(3).AvgPathLength(); got != -1 {
		t.Fatalf("AvgPathLength(disconnected) = %v, want -1", got)
	}
	if got := New(1).AvgPathLength(); got != -1 {
		t.Fatalf("AvgPathLength(singleton) = %v, want -1", got)
	}
}

func TestPropertyComponentsPartition(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%15) + 1
		g := randomGraph(n, uint64(seed))
		seen := make([]bool, n)
		total := 0
		for _, comp := range g.Components() {
			for _, v := range comp {
				if seen[v] {
					return false // node in two components
				}
				seen[v] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDiameterTriangleInequality(t *testing.T) {
	// Any two eccentricities differ by at most the distance between their
	// nodes; in particular diam <= 2*ecc(v) for every v of a connected g.
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		g := randomGraph(n, uint64(seed))
		if !g.Connected() {
			return true
		}
		diam := g.Diameter()
		for v := 0; v < n; v++ {
			ecc, _ := g.Eccentricity(v)
			if ecc > diam || diam > 2*ecc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
