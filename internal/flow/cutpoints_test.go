package flow

import (
	"slices"
	"testing"
	"testing/quick"

	"lhg/internal/graph"
)

// Tarjan-style DFS low-link computation of articulation points and
// bridges. These are the κ=1 and λ=1 witnesses: a connected graph is
// 2-node-connected iff it has no articulation point, and 2-link-connected
// iff it has no bridge, so they cross-check the max-flow connectivity
// sweeps by an independent method (a graph with a bridge must report
// λ = 1).

// articulationPoints returns the nodes whose removal increases the number
// of connected components, in ascending order.
func articulationPoints(g *graph.Graph) []int {
	state := lowlinkOf(g)
	var out []int
	for v, cut := range state.isCut {
		if cut {
			out = append(out, v)
		}
	}
	return out
}

// bridges returns the edges whose removal disconnects their endpoints, in
// canonical (U<V, sorted) order.
func bridges(g *graph.Graph) []graph.Edge {
	out := lowlinkOf(g).bridges
	slices.SortFunc(out, func(a, b graph.Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	return out
}

// lowlink carries the shared DFS state. The traversal is iterative (an
// explicit stack) so deep graphs cannot overflow the goroutine stack.
type lowlink struct {
	disc    []int
	low     []int
	parent  []int
	isCut   []bool
	bridges []graph.Edge
	time    int
}

// lowlinkOf runs the DFS from every unvisited root of g.
func lowlinkOf(g *graph.Graph) *lowlink {
	n := g.Order()
	s := &lowlink{
		disc:   make([]int, n),
		low:    make([]int, n),
		parent: make([]int, n),
		isCut:  make([]bool, n),
	}
	for root := 0; root < n; root++ {
		if s.disc[root] == 0 {
			s.run(g, root)
		}
	}
	return s
}

// frame is one DFS stack entry: node v and the index of the next neighbor
// to visit.
type frame struct {
	v, next int
}

func (s *lowlink) run(g *graph.Graph, root int) {
	s.parent[root] = -1
	s.time++
	s.disc[root] = s.time
	s.low[root] = s.time
	stack := []frame{{v: root}}
	rootChildren := 0
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		v := top.v
		if top.next < g.Degree(v) {
			w := g.Neighbors(v)[top.next]
			top.next++
			switch {
			case s.disc[w] == 0:
				s.parent[w] = v
				if v == root {
					rootChildren++
				}
				s.time++
				s.disc[w] = s.time
				s.low[w] = s.time
				stack = append(stack, frame{v: w})
			case w != s.parent[v] && s.disc[w] < s.low[v]:
				s.low[v] = s.disc[w]
			}
			continue
		}
		// Post-order: fold v's low into its parent and classify.
		stack = stack[:len(stack)-1]
		p := s.parent[v]
		if p < 0 {
			continue
		}
		if s.low[v] < s.low[p] {
			s.low[p] = s.low[v]
		}
		if s.low[v] > s.disc[p] {
			s.bridges = append(s.bridges, graph.Edge{U: min(p, v), V: max(p, v)})
		}
		if p != root && s.low[v] >= s.disc[p] {
			s.isCut[p] = true
		}
	}
	if rootChildren > 1 {
		s.isCut[root] = true
	}
}

func TestArticulationPointsPath(t *testing.T) {
	if aps := articulationPoints(path(5)); !slices.Equal(aps, []int{1, 2, 3}) {
		t.Fatalf("articulation points = %v, want [1 2 3]", aps)
	}
}

func TestArticulationPointsCycleNone(t *testing.T) {
	if aps := articulationPoints(cycle(6)); len(aps) != 0 {
		t.Fatalf("cycle has articulation points %v", aps)
	}
}

func TestArticulationPointsTwoTriangles(t *testing.T) {
	// Triangles {0,1,2} and {3,4,5} joined by bridge (2,3).
	g := twoTriangles()
	if aps := articulationPoints(g); !slices.Equal(aps, []int{2, 3}) {
		t.Fatalf("articulation points = %v, want [2 3]", aps)
	}
	if bs := bridges(g); !slices.Equal(bs, []graph.Edge{{U: 2, V: 3}}) {
		t.Fatalf("bridges = %v, want [(2,3)]", bs)
	}
}

func TestBridgesPathAll(t *testing.T) {
	if bs := bridges(path(4)); len(bs) != 3 {
		t.Fatalf("path bridges = %v, want every edge", bs)
	}
}

func TestBridgesStarAll(t *testing.T) {
	b := graph.NewBuilder(5)
	for v := 1; v < 5; v++ {
		b.MustAddEdge(0, v)
	}
	g := b.Freeze()
	if len(bridges(g)) != 4 {
		t.Fatal("every star edge is a bridge")
	}
	if aps := articulationPoints(g); !slices.Equal(aps, []int{0}) {
		t.Fatalf("star articulation points = %v, want [0]", aps)
	}
}

func TestCutpointsDisconnectedGraph(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	if aps := articulationPoints(g); !slices.Equal(aps, []int{1}) {
		t.Fatalf("articulation points = %v, want [1]", aps)
	}
	if bs := bridges(g); len(bs) != 3 {
		t.Fatalf("bridges = %v, want all 3 edges", bs)
	}
}

// Brute-force oracles.
func bruteArticulation(g *graph.Graph) []int {
	n := g.Order()
	base := len(g.Components())
	var out []int
	removed := make([]bool, n)
	for v := 0; v < n; v++ {
		removed[v] = true
		// Count components among the surviving nodes.
		comps := 0
		seen := make([]bool, n)
		for s := 0; s < n; s++ {
			if removed[s] || seen[s] {
				continue
			}
			comps++
			stack := []int{s}
			seen[s] = true
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range g.Neighbors(u) {
					if !seen[w] && !removed[w] {
						seen[w] = true
						stack = append(stack, w)
					}
				}
			}
		}
		// v's removal also removes the singleton component it may have
		// been; compare against base adjusted for isolated v.
		adjust := 0
		if g.Degree(v) == 0 {
			adjust = 1
		}
		if comps > base-adjust {
			out = append(out, v)
		}
		removed[v] = false
	}
	return out
}

func bruteBridges(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	for _, e := range g.Edges() {
		h := g.WithoutEdge(e.U, e.V)
		if h.BFSFrom(e.U)[e.V] < 0 {
			out = append(out, e)
		}
	}
	return out
}

func TestPropertyCutpointsMatchBruteForce(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		g := gnp(n, 5, uint64(seed)) // p = 5/16: sparse enough for cut nodes
		return slices.Equal(articulationPoints(g), bruteArticulation(g)) &&
			slices.Equal(bridges(g), bruteBridges(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCutpointsAgreeWithKConnectivityOnLHGs(t *testing.T) {
	// Any 2-connected graph (in particular every built LHG) has no
	// articulation points and no bridges.
	b := cycle(12).Thaw()
	b.MustAddEdge(0, 6)
	b.MustAddEdge(3, 9)
	g := b.Freeze()
	if len(articulationPoints(g)) != 0 || len(bridges(g)) != 0 {
		t.Fatal("chorded cycle is 2-connected")
	}
}
