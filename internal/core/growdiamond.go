package core

import (
	"fmt"

	"lhg/internal/graph"
)

// KDiamondGrower maintains a K-DIAMOND LHG incrementally (the constructive
// procedure of the Theorem 5 proof). Node ids are stable. Every k-1
// admitted nodes the parameter α of the canonical decomposition
// n = 2k + α(k-1) + j advances by one, alternating between forming an
// unshared clique (Part 2) and dissolving it into a new internal level
// (Part 3) — so the graph is k-regular after exactly the sizes Theorem 6
// predicts.
type KDiamondGrower struct {
	k     int
	g     *graph.Builder
	queue []pendingLeaf // base shared leaves in creation order
	added []int         // waiting added leaves (at most k-2)
	// group is the pending unshared clique: group[i] is the member holding
	// the single link into tree copy i. Empty when α is even.
	group []int
}

// NewKDiamondGrower starts from the minimal graph (2k, k), identical to the
// K-TREE minimum: root copies 0..k-1, shared leaves k..2k-1.
func NewKDiamondGrower(k int) (*KDiamondGrower, error) {
	if k < 3 {
		return nil, notConstructible("K-DIAMOND", 2*k, k, "k must be >= 3")
	}
	g := graph.NewBuilder(2 * k)
	roots := make([]int, k)
	for i := range roots {
		roots[i] = i
	}
	gr := &KDiamondGrower{k: k, g: g}
	for leaf := k; leaf < 2*k; leaf++ {
		for _, r := range roots {
			g.MustAddEdge(r, leaf)
		}
		gr.queue = append(gr.queue, pendingLeaf{node: leaf, parents: roots})
	}
	return gr, nil
}

// N returns the current number of nodes.
func (gr *KDiamondGrower) N() int { return gr.g.Order() }

// K returns the connectivity target.
func (gr *KDiamondGrower) K() int { return gr.k }

// Graph returns the current topology as a frozen, immutable view. The
// freeze is cached between growth steps, so repeated calls are free.
func (gr *KDiamondGrower) Graph() *graph.Graph { return gr.g.Freeze() }

// Grow admits one node and returns the edge surgery performed, in
// canonical (sorted) form.
func (gr *KDiamondGrower) Grow() (EdgeDelta, error) {
	var d EdgeDelta
	var err error
	switch {
	case len(gr.added) < gr.k-2:
		d, err = gr.growAddedLeaf()
	case len(gr.group) == 0:
		d, err = gr.formGroup()
	default:
		d, err = gr.dissolveGroup()
	}
	d.Normalize()
	return d, err
}

// growAddedLeaf is Part 1: the joiner hangs off the node just above the
// leaves in every tree copy (at most k-2 such leaves wait at a time).
func (gr *KDiamondGrower) growAddedLeaf() (EdgeDelta, error) {
	if len(gr.queue) == 0 {
		return EdgeDelta{}, fmt.Errorf("core: grower has no pending leaves")
	}
	var d EdgeDelta
	host := gr.queue[0].parents
	id := gr.g.AddNode()
	for _, p := range host {
		gr.g.MustAddEdge(p, id)
		d.Added = append(d.Added, edge(p, id))
	}
	gr.added = append(gr.added, id)
	return d, nil
}

// formGroup is Part 2 (α even → odd): the k-2 waiting added leaves, the
// oldest base leaf and the joiner become an unshared leaf — a k-clique in
// which member i keeps exactly one link, into tree copy i.
func (gr *KDiamondGrower) formGroup() (EdgeDelta, error) {
	k := gr.k
	if len(gr.queue) == 0 {
		return EdgeDelta{}, fmt.Errorf("core: grower has no pending leaves")
	}
	var d EdgeDelta
	front := gr.queue[0]
	gr.queue = gr.queue[1:]
	s, parents := front.node, front.parents

	// Members: the oldest base leaf (slot 0), the k-2 waiting added leaves
	// (slots 1..k-2) and the joiner (slot k-1). Member i keeps only its
	// link to parents[i] (rule 4b); s and the added leaves currently link
	// to all k parents, the joiner to none yet.
	members := make([]int, k)
	members[0] = s
	copy(members[1:], gr.added)
	joiner := gr.g.AddNode()
	members[k-1] = joiner
	for i, m := range members {
		if m == joiner {
			gr.g.MustAddEdge(m, parents[i])
			d.Added = append(d.Added, edge(m, parents[i]))
			continue
		}
		for j := 0; j < k; j++ {
			if j != i {
				gr.removeEdge(&d, m, parents[j])
			}
		}
	}
	// Clique among the members (rule 4a).
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			gr.g.MustAddEdge(members[i], members[j])
			d.Added = append(d.Added, edge(members[i], members[j]))
		}
	}
	gr.group = members
	gr.added = gr.added[:0]
	return d, nil
}

// dissolveGroup is Part 3 (α odd → even): the pending clique becomes the k
// copies of a new internal node — each member already holds exactly one
// tree link, which becomes its parent link — and the k-2 waiting added
// leaves plus the joiner become its k-1 shared leaf children.
func (gr *KDiamondGrower) dissolveGroup() (EdgeDelta, error) {
	k := gr.k
	members := gr.group
	var d EdgeDelta
	// Drop the clique edges: the members turn into plain internal copies.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			gr.removeEdge(&d, members[i], members[j])
		}
	}
	// Children: rewire each waiting added leaf from its current host onto
	// the member set, then add the joiner.
	children := make([]int, 0, k-1)
	for _, c := range gr.added {
		for _, nb := range gr.g.Neighbors(c) {
			gr.removeEdge(&d, c, nb)
		}
		children = append(children, c)
	}
	children = append(children, gr.g.AddNode())
	for _, child := range children {
		for _, m := range members {
			gr.g.MustAddEdge(m, child)
			d.Added = append(d.Added, edge(m, child))
		}
		gr.queue = append(gr.queue, pendingLeaf{node: child, parents: members})
	}
	gr.group = nil
	gr.added = gr.added[:0]
	return d, nil
}

func (gr *KDiamondGrower) removeEdge(d *EdgeDelta, u, v int) {
	if gr.g.RemoveEdge(u, v) {
		d.Removed = append(d.Removed, edge(u, v))
	}
}
