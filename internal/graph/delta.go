package graph

import (
	"fmt"
	"sort"
)

// EdgeDelta is the edge surgery of one reconfiguration step (or a merged
// batch of steps): the links set up and torn down, each listed exactly once
// with U < V. Deltas produced by the churn engine in internal/core are
// canonical — both slices sorted by (U,V) with no overlap between Added and
// Removed — so JSON encodings and diff-shaped API responses are
// byte-deterministic across runs.
type EdgeDelta struct {
	Added   []Edge
	Removed []Edge
}

// Total returns the number of link operations in the delta.
func (d EdgeDelta) Total() int { return len(d.Added) + len(d.Removed) }

// Empty reports whether the delta performs no link operation.
func (d EdgeDelta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// Normalize sorts Added and Removed canonically by (U,V), orients every
// edge U < V, and cancels pairs that appear in both lists (an edge set up
// and torn down within one batch is no operation at all). Every delta
// returned by the core growers is already normalized; callers assembling
// deltas by hand should call this before handing them to ApplyDelta.
func (d *EdgeDelta) Normalize() {
	d.Added = canonEdges(d.Added)
	d.Removed = canonEdges(d.Removed)
	if len(d.Added) == 0 || len(d.Removed) == 0 {
		return
	}
	// Cancel edges present in both (both slices are now sorted and unique).
	inBoth := make(map[Edge]bool)
	i, j := 0, 0
	for i < len(d.Added) && j < len(d.Removed) {
		switch {
		case edgeLess(d.Added[i], d.Removed[j]):
			i++
		case edgeLess(d.Removed[j], d.Added[i]):
			j++
		default:
			inBoth[d.Added[i]] = true
			i++
			j++
		}
	}
	if len(inBoth) == 0 {
		return
	}
	keep := func(es []Edge) []Edge {
		out := es[:0]
		for _, e := range es {
			if !inBoth[e] {
				out = append(out, e)
			}
		}
		return out
	}
	d.Added = keep(d.Added)
	d.Removed = keep(d.Removed)
}

// canonEdges orients (U < V), sorts by (U,V) and removes duplicates.
func canonEdges(es []Edge) []Edge {
	if len(es) == 0 {
		return es
	}
	for i, e := range es {
		if e.U > e.V {
			es[i] = Edge{U: e.V, V: e.U}
		}
	}
	sort.Slice(es, func(i, j int) bool { return edgeLess(es[i], es[j]) })
	out := es[:1]
	for _, e := range es[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

func edgeLess(a, b Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// ApplyDelta produces the frozen graph that results from applying d to g
// and resizing the node set to n (n > g.Order() admits new isolated-then-
// wired nodes; n < g.Order() drops departed top labels, whose links must
// all appear in d.Removed). Only the adjacency rows of touched nodes are
// rebuilt — untouched rows are block-copied without re-sorting — so the
// patch work is O(changed edges + touched-row degrees) on top of the flat
// O(n+m) copy every immutable view costs.
//
// The delta must be exact: removing an absent edge, adding a present one,
// adding an edge out of [0,n), or leaving a departed node with live links
// is an error (callers diffing real topologies rely on this strictness).
func (g *Graph) ApplyDelta(d EdgeDelta, n int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	oldN := g.Order()
	// Per-node patch lists. Nodes >= n may appear as removal endpoints
	// (departures); additions must stay inside the new node range.
	type patch struct {
		add, del []int32
	}
	patches := make(map[int]*patch, 2*d.Total())
	at := func(v int) *patch {
		p := patches[v]
		if p == nil {
			p = &patch{}
			patches[v] = p
		}
		return p
	}
	for _, e := range d.Removed {
		if e.U < 0 || e.V < 0 || e.U >= oldN || e.V >= oldN {
			return nil, fmt.Errorf("graph: delta removes edge (%d,%d) outside [0,%d)", e.U, e.V, oldN)
		}
		if !g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("graph: delta removes absent edge (%d,%d)", e.U, e.V)
		}
		at(e.U).del = append(at(e.U).del, int32(e.V))
		at(e.V).del = append(at(e.V).del, int32(e.U))
	}
	for _, e := range d.Added {
		if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			return nil, fmt.Errorf("graph: delta adds edge (%d,%d) outside [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: delta adds self-loop on node %d", e.U)
		}
		if e.U < oldN && e.V < oldN && g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("graph: delta adds duplicate edge (%d,%d)", e.U, e.V)
		}
		at(e.U).add = append(at(e.U).add, int32(e.V))
		at(e.V).add = append(at(e.V).add, int32(e.U))
	}
	// Departed nodes must end isolated: every live link has to be torn
	// down by the delta or the shrink would corrupt surviving rows.
	for v := n; v < oldN; v++ {
		p := patches[v]
		deg := g.Degree(v)
		if p == nil && deg == 0 {
			continue
		}
		if p == nil || len(p.add) > 0 || len(p.del) != deg {
			torn := 0
			if p != nil {
				torn = len(p.del)
			}
			return nil, fmt.Errorf("graph: delta drops node %d but leaves %d of its %d links",
				v, deg-torn, deg)
		}
	}

	h := &Graph{off: make([]int32, n+1)}
	total := 0
	for v := 0; v < n; v++ {
		deg := 0
		if v < oldN {
			deg = g.Degree(v)
		}
		if p := patches[v]; p != nil {
			deg += len(p.add) - len(p.del)
			if deg < 0 {
				return nil, fmt.Errorf("graph: delta drives node %d to negative degree", v)
			}
		}
		total += deg
		h.off[v+1] = int32(total)
	}
	h.nbr = make([]int32, total)
	h.edges = total / 2
	for v := 0; v < n; v++ {
		dst := h.nbr[h.off[v]:h.off[v+1]]
		var src []int32
		if v < oldN {
			src = g.row(v)
		}
		p := patches[v]
		if p == nil {
			copy(dst, src)
			continue
		}
		sortInt32(p.add)
		sortInt32(p.del)
		// Merge: src minus del, interleaved with add, keeping sorted order.
		w, ai, di := 0, 0, 0
		for _, x := range src {
			for ai < len(p.add) && p.add[ai] < x {
				dst[w] = p.add[ai]
				w++
				ai++
			}
			if di < len(p.del) && p.del[di] == x {
				di++
				continue
			}
			dst[w] = x
			w++
		}
		for ai < len(p.add) {
			dst[w] = p.add[ai]
			w++
			ai++
		}
		if w != len(dst) || di != len(p.del) {
			return nil, fmt.Errorf("graph: inconsistent delta at node %d", v)
		}
	}
	return h, nil
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
