package core

import (
	"fmt"

	"lhg/internal/graph"
)

// This file implements *incremental* LHG maintenance: the constructive
// procedures inside the proofs of Theorem 2 (K-TREE) and Theorem 5
// (K-DIAMOND) executed as graph-surgery steps. Each Grow() call adds
// exactly one node and rewires O(k²) edges — independent of n — while the
// graph satisfies its constraint (and hence is an LHG) after every step.
// This is the operational payoff of the existence theorems for the P2P
// setting: a membership service can admit one joiner at a time without
// ever rebuilding the overlay.
//
// K-TREE growth (proof of Theorem 2):
//
//	state (α, j): while j < 2k-3, a new node becomes an added leaf on the
//	node just above the leaves (Part 1). At j = 2k-3 the next node triggers
//	the Part 2 restructure: the 2k-3 waiting added leaves plus the joiner
//	(2k-2 nodes total) convert the oldest base leaf s into an internal
//	node: k-1 of them become s's copies in the other trees, the remaining
//	k-1 become the new level of shared leaves under all k copies.
//
// K-DIAMOND growth (proof of Theorem 5):
//
//	state (α, j): while j < k-2, added leaves accumulate (Part 1). At
//	j = k-2 the joiner completes a batch of k-1 nodes and α increments:
//	on even→odd transitions the batch plus the oldest base leaf form an
//	*unshared leaf* — a k-clique, member i keeping exactly one link into
//	tree copy i (Part 2); on odd→even transitions the pending clique
//	dissolves into the k copies of a new internal node (each member
//	already holds exactly one tree link, which becomes its parent link)
//	and the batch becomes its k-1 shared leaf children (Part 3).

// EdgeDelta records the edge surgery of one reconfiguration step. The type
// lives in internal/graph (Graph.ApplyDelta consumes it); the alias keeps
// the historical core.EdgeDelta name working for every existing caller.
// Deltas returned by the growers are canonical: Added and Removed sorted by
// (U,V), so every serialization of a step is byte-deterministic.
type EdgeDelta = graph.EdgeDelta

// pendingLeaf is a base shared leaf awaiting conversion, with its parent
// nodes ordered by tree copy.
type pendingLeaf struct {
	node    int
	parents []int // parents[i] is the leaf's neighbor in tree copy i
}

// KTreeGrower maintains a K-TREE LHG incrementally. Node ids are stable:
// once assigned, a process keeps its id across every growth step.
type KTreeGrower struct {
	k     int
	g     *graph.Builder
	queue []pendingLeaf // base leaves in creation (BFS) order
	added []int         // waiting added leaves, attached to queue[0].parents
}

// NewKTreeGrower starts from the minimal K-TREE graph (2k, k): nodes
// 0..k-1 are the root copies, k..2k-1 the initial shared leaves.
func NewKTreeGrower(k int) (*KTreeGrower, error) {
	if k < 3 {
		return nil, notConstructible("K-TREE", 2*k, k, "k must be >= 3")
	}
	g := graph.NewBuilder(2 * k)
	roots := make([]int, k)
	for i := range roots {
		roots[i] = i
	}
	gr := &KTreeGrower{k: k, g: g}
	for leaf := k; leaf < 2*k; leaf++ {
		for _, r := range roots {
			g.MustAddEdge(r, leaf)
		}
		gr.queue = append(gr.queue, pendingLeaf{node: leaf, parents: roots})
	}
	return gr, nil
}

// N returns the current number of nodes.
func (gr *KTreeGrower) N() int { return gr.g.Order() }

// K returns the connectivity target.
func (gr *KTreeGrower) K() int { return gr.k }

// Graph returns the current topology as a frozen, immutable view. The
// freeze is cached between growth steps, so repeated calls are free.
func (gr *KTreeGrower) Graph() *graph.Graph { return gr.g.Freeze() }

// Grow admits one node and returns the edge surgery performed, in
// canonical (sorted) form.
func (gr *KTreeGrower) Grow() (EdgeDelta, error) {
	var d EdgeDelta
	var err error
	if len(gr.added) < 2*gr.k-3 {
		d, err = gr.growAddedLeaf()
	} else {
		d, err = gr.restructure()
	}
	d.Normalize()
	return d, err
}

// growAddedLeaf is Part 1 of the Theorem 2 proof: the joiner hangs off the
// node just above the leaves, in every tree copy.
func (gr *KTreeGrower) growAddedLeaf() (EdgeDelta, error) {
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

// restructure is Part 2 of the Theorem 2 proof: the waiting 2k-3 added
// leaves plus the joiner convert the oldest base leaf into an internal
// node with a fresh level of k-1 shared leaves.
func (gr *KTreeGrower) restructure() (EdgeDelta, error) {
	k := gr.k
	if len(gr.queue) == 0 {
		return EdgeDelta{}, fmt.Errorf("core: grower has no pending leaves")
	}
	var d EdgeDelta
	front := gr.queue[0]
	gr.queue = gr.queue[1:]
	s, parents := front.node, front.parents

	// s stays the copy-0 internal node: keep the edge to parents[0] only.
	for i := 1; i < k; i++ {
		gr.removeEdge(&d, s, parents[i])
	}
	// Added leaves 0..k-2 become s's copies in trees 1..k-1: copy i keeps
	// its edge to parents[i] and drops the rest.
	internals := make([]int, k)
	internals[0] = s
	for i := 1; i < k; i++ {
		c := gr.added[i-1]
		internals[i] = c
		for j := 0; j < k; j++ {
			if j != i {
				gr.removeEdge(&d, c, parents[j])
			}
		}
	}
	// The remaining k-2 added leaves plus the joiner become the k-1 new
	// shared leaves under every copy of s.
	children := make([]int, 0, k-1)
	for _, c := range gr.added[k-1:] {
		for j := 0; j < k; j++ {
			gr.removeEdge(&d, c, parents[j])
		}
		children = append(children, c)
	}
	children = append(children, gr.g.AddNode())
	for _, child := range children {
		for _, in := range internals {
			gr.g.MustAddEdge(in, child)
			d.Added = append(d.Added, edge(in, child))
		}
		gr.queue = append(gr.queue, pendingLeaf{node: child, parents: internals})
	}
	gr.added = gr.added[:0]
	return d, nil
}

func (gr *KTreeGrower) removeEdge(d *EdgeDelta, u, v int) {
	if gr.g.RemoveEdge(u, v) {
		d.Removed = append(d.Removed, edge(u, v))
	}
}

func edge(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}
