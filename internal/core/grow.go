package core

import (
	"fmt"
	"slices"

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
// Both families run one state machine. A batch of 2k-2 joins turns the
// oldest base leaf s into an internal node: s and k-1 joiners become its k
// copies (copy i keeps only its link into tree copy i), and the other k-1
// joiners become a new level of shared leaves under all k copies. At every
// batch boundary n = 2k + m(2k-2) the two families hold the same graph.
//
// K-TREE growth (proof of Theorem 2):
//
//	while j < 2k-3, a new node becomes an added leaf on the node just above
//	the leaves (Part 1). At j = 2k-3 the next node completes the batch in
//	one promotion (Part 2).
//
// K-DIAMOND growth (proof of Theorem 5):
//
//	while j < k-2, added leaves accumulate (Part 1). At j = k-2 the joiner
//	completes a half batch of k-1 nodes and α increments: on even→odd
//	transitions the half batch plus the oldest base leaf form an *unshared
//	leaf* — a k-clique, member i keeping exactly one link into tree copy i
//	(Part 2); on odd→even transitions the pending clique dissolves into the
//	k copies of a new internal node and the half batch becomes its k-1
//	shared leaf children (Part 3).

// EdgeDelta records the edge surgery of one reconfiguration step. The type
// lives in internal/graph (Graph.ApplyDelta consumes it); the alias keeps
// the historical core.EdgeDelta name working for every existing caller.
// Deltas returned by the grower are canonical: Added and Removed sorted by
// (U,V), so every serialization of a step is byte-deterministic.
type EdgeDelta = graph.EdgeDelta

// pendingLeaf is a base shared leaf awaiting conversion, with its parent
// nodes ordered by tree copy.
type pendingLeaf struct {
	node    int
	parents []int // parents[i] is the leaf's neighbor in tree copy i
}

// Grower is the churn engine of both constructions: joins via the
// constructive proofs' growth steps, leaves via their inverse surgery, and
// batches via Apply. The graph satisfies its constraint (and hence is an
// LHG) after every single step, so a grower absorbs arbitrary
// interleavings of joins and leaves without any rebuild. Node ids are
// stable: once assigned, a process keeps its id across every step.
type Grower struct {
	k       int
	diamond bool // K-DIAMOND's clique steps; set only by the constructors
	g       *graph.Builder
	queue   []pendingLeaf // base leaves in creation (BFS) order
	added   []int         // waiting added leaves, attached to queue[0].parents
	// group is the pending K-DIAMOND unshared clique: group[i] is the
	// member holding the single link into tree copy i. Empty when α is even.
	group []int
}

// NewKTreeGrowerAt returns a K-TREE grower fast-forwarded to n nodes. The
// state is the unique one the deterministic construction reaches, so it is
// interchangeable with a grower that arrived at n step by step.
func NewKTreeGrowerAt(k, n int) (*Grower, error) { return newGrowerAt(k, n, false) }

// NewKDiamondGrowerAt returns a K-DIAMOND grower fast-forwarded to n nodes;
// see NewKTreeGrowerAt.
func NewKDiamondGrowerAt(k, n int) (*Grower, error) { return newGrowerAt(k, n, true) }

// newGrowerAt starts from the minimal graph (2k, k), the same for both
// families: nodes 0..k-1 are the root copies, k..2k-1 the initial shared
// leaves. It then grows to n.
func newGrowerAt(k, n int, diamond bool) (*Grower, error) {
	gr := &Grower{k: k, diamond: diamond}
	if err := validatePair(gr.name(), n, k); err != nil {
		return nil, err
	}
	gr.g = graph.NewBuilder(2 * k)
	roots := make([]int, k)
	for i := range roots {
		roots[i] = i
	}
	for leaf := k; leaf < 2*k; leaf++ {
		for _, r := range roots {
			gr.g.MustAddEdge(r, leaf)
		}
		gr.queue = append(gr.queue, pendingLeaf{node: leaf, parents: roots})
	}
	for gr.N() < n {
		if _, err := gr.Grow(); err != nil {
			return nil, err
		}
	}
	return gr, nil
}

func (gr *Grower) name() string {
	if gr.diamond {
		return "K-DIAMOND"
	}
	return "K-TREE"
}

// maxAdded is the number of added leaves that wait before a batch step.
func (gr *Grower) maxAdded() int {
	if gr.diamond {
		return gr.k - 2
	}
	return 2*gr.k - 3
}

// N returns the current number of nodes.
func (gr *Grower) N() int { return gr.g.Order() }

// K returns the connectivity target.
func (gr *Grower) K() int { return gr.k }

// Graph returns the current topology as a frozen, immutable view. The
// freeze is cached between growth steps, so repeated calls are free.
func (gr *Grower) Graph() *graph.Graph { return gr.g.Freeze() }

// Grow admits one node and returns the edge surgery performed, in
// canonical (sorted) form.
func (gr *Grower) Grow() (EdgeDelta, error) {
	var d EdgeDelta
	var err error
	switch {
	case len(gr.added) < gr.maxAdded():
		err = gr.growLeaf(&d)
	case !gr.diamond:
		err = gr.promote(&d)
	case len(gr.group) == 0:
		err = gr.formGroup(&d)
	default:
		gr.dissolveGroup(&d)
	}
	d.Normalize()
	return d, err
}

// growLeaf is Part 1 of both proofs: the joiner hangs off the node just
// above the leaves, in every tree copy.
func (gr *Grower) growLeaf(d *EdgeDelta) error {
	if len(gr.queue) == 0 {
		return fmt.Errorf("core: grower has no pending leaves")
	}
	id := gr.g.AddNode()
	for _, p := range gr.queue[0].parents {
		gr.link(d, p, id)
	}
	gr.added = append(gr.added, id)
	return nil
}

// popFront takes the oldest base leaf off the queue.
func (gr *Grower) popFront() (pendingLeaf, error) {
	if len(gr.queue) == 0 {
		return pendingLeaf{}, fmt.Errorf("core: grower has no pending leaves")
	}
	front := gr.queue[0]
	gr.queue = gr.queue[1:]
	return front, nil
}

// split makes slots[i] keep only its link to parents[i]: the base leaf and
// the added leaves among the slots drop their other k-1 parent links.
func (gr *Grower) split(d *EdgeDelta, slots, parents []int) {
	for i, m := range slots {
		for j, p := range parents {
			if j != i {
				gr.unlink(d, m, p)
			}
		}
	}
}

// promote is Part 2 of the Theorem 2 proof: the waiting 2k-3 added leaves
// plus the joiner convert the oldest base leaf s into an internal node.
// s and added leaves 0..k-2 become its k copies; the rest, with the
// joiner, become its fresh level of k-1 shared leaves.
func (gr *Grower) promote(d *EdgeDelta) error {
	front, err := gr.popFront()
	if err != nil {
		return err
	}
	k := gr.k
	copies := append([]int{front.node}, gr.added[:k-1]...)
	gr.split(d, copies, front.parents)
	gr.addLevel(d, front.parents, copies, gr.added[k-1:])
	return nil
}

// formGroup is Part 2 of the Theorem 5 proof (α even → odd): the oldest
// base leaf (slot 0), the k-2 waiting added leaves (slots 1..k-2) and the
// joiner (slot k-1) become an unshared leaf — a k-clique in which member i
// keeps exactly one link, into tree copy i (rules 4a, 4b).
func (gr *Grower) formGroup(d *EdgeDelta) error {
	front, err := gr.popFront()
	if err != nil {
		return err
	}
	k := gr.k
	members := append([]int{front.node}, gr.added...)
	gr.split(d, members, front.parents)
	joiner := gr.g.AddNode()
	gr.link(d, joiner, front.parents[k-1])
	members = append(members, joiner)
	gr.clique(d, members, gr.link)
	gr.group = members
	gr.added = gr.added[:0]
	return nil
}

// dissolveGroup is Part 3 of the Theorem 5 proof (α odd → even): the
// pending clique becomes the k copies of a new internal node — each member
// already holds exactly one tree link, which becomes its parent link — and
// the k-2 waiting added leaves plus the joiner become its k-1 shared leaf
// children.
func (gr *Grower) dissolveGroup(d *EdgeDelta) {
	members := gr.group
	gr.clique(d, members, gr.unlink)
	gr.addLevel(d, gr.queue[0].parents, members, gr.added)
	gr.group = nil
}

// addLevel ends a batch in both families: the waiting leaves detach from
// their host and, with the joiner, become the new level of k-1 shared
// leaves under every one of the k copies.
func (gr *Grower) addLevel(d *EdgeDelta, host, copies, leaves []int) {
	children := append(make([]int, 0, gr.k-1), leaves...)
	children = append(children, gr.g.AddNode())
	for _, c := range leaves {
		for _, p := range host {
			gr.unlink(d, c, p)
		}
	}
	for _, child := range children {
		for _, c := range copies {
			gr.link(d, c, child)
		}
		gr.queue = append(gr.queue, pendingLeaf{node: child, parents: copies})
	}
	gr.added = gr.added[:0]
}

// clique applies op to every pair of members.
func (gr *Grower) clique(d *EdgeDelta, members []int, op func(d *EdgeDelta, u, v int)) {
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			op(d, members[i], members[j])
		}
	}
}

// link adds edge (u,v) if it is absent and records it in d.
func (gr *Grower) link(d *EdgeDelta, u, v int) {
	if !gr.g.HasEdge(u, v) {
		gr.g.MustAddEdge(u, v)
		d.Added = append(d.Added, edge(u, v))
	}
}

// unlink removes edge (u,v) if it is present and records it in d.
func (gr *Grower) unlink(d *EdgeDelta, u, v int) {
	if gr.g.RemoveEdge(u, v) {
		d.Removed = append(d.Removed, edge(u, v))
	}
}

// uplinks returns, for each of nodes, its unique neighbor outside the set
// skip: the one tree link a copy or clique member keeps.
func (gr *Grower) uplinks(nodes, skip []int) ([]int, error) {
	up := make([]int, len(nodes))
	for i, v := range nodes {
		up[i] = -1
		for _, nb := range gr.g.Neighbors(v) {
			if slices.Contains(skip, nb) {
				continue
			}
			if up[i] >= 0 {
				return nil, fmt.Errorf("core: inconsistent grower state: node %d has two tree links", v)
			}
			up[i] = nb
		}
		if up[i] < 0 {
			return nil, fmt.Errorf("core: inconsistent grower state: node %d has no tree link", v)
		}
	}
	return up, nil
}

func edge(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}
