package graph

// BFSTree returns the breadth-first spanning tree of g rooted at src as a
// new graph over the same node ids (n-1 edges when g is connected). It is
// the classic fragile-dissemination baseline: flooding over a tree uses the
// fewest messages possible but any single node or link failure partitions
// it.
func (g *Graph) BFSTree(src int) *Graph {
	n := g.Order()
	if src < 0 || src >= n {
		return New(n)
	}
	visited := make([]bool, n)
	visited[src] = true
	queue := make([]int, 0, n)
	queue = append(queue, src)
	edges := make([]Edge, 0, n)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, w := range g.row(u) {
			v := int(w)
			if !visited[v] {
				visited[v] = true
				edges = append(edges, edgeOf(u, v))
				queue = append(queue, v)
			}
		}
	}
	return MustFromEdges(n, edges)
}

// edgeOf returns the canonical (U < V) form of the edge u-v.
func edgeOf(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}
