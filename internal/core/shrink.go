package core

import (
	"fmt"
	"slices"
)

// Shrink — departures via the proofs' inverse surgery.
//
// Both constructions are deterministic: the graph and the grower state at
// size n are unique functions of (constraint, k, n). The inverse of the
// most recent Grow is therefore recomputable from the current state alone —
// no undo log. Every Grow admits node n−1, so one Shrink always retires
// label n−1; an arbitrary departure is handled above this layer by the
// membership service, which relabels the departed slot with the youngest
// process (a metadata swap, no extra edges) and then retires the top label
// here. In proof terms: a departed added-leaf is simply dropped, while a
// departed internal or base node is backfilled by the youngest waiting
// nodes unwinding the batch that promoted it.
//
// Which inverse applies is read off the state machine:
//
//	added non-empty            → the last step was an added-leaf join
//	K-TREE                     → the last step was the Part 2 promotion
//	K-DIAMOND, group non-empty → Part 2 formGroup (clique formation)
//	K-DIAMOND, otherwise       → Part 3 dissolveGroup
//
// (after each batch step the added list is cleared, so the added counter j
// doubles as "steps since the last batch boundary").

// Shrink retires the youngest node (label n−1) and returns the edge surgery
// performed, in canonical form. It is the exact inverse of the previous
// Grow: a Grow followed by a Shrink restores both the graph and the grower
// state bit-for-bit.
func (gr *Grower) Shrink() (EdgeDelta, error) {
	if gr.N() <= 2*gr.k {
		return EdgeDelta{}, notConstructible(gr.name(), gr.N()-1, gr.k,
			fmt.Sprintf("cannot shrink below the minimal graph n = 2k = %d", 2*gr.k))
	}
	var d EdgeDelta
	var err error
	switch {
	case len(gr.added) > 0:
		err = gr.shrinkLeaf(&d)
	case !gr.diamond:
		err = gr.unpromote(&d)
	case len(gr.group) > 0:
		err = gr.unformGroup(&d)
	default:
		err = gr.undissolveGroup(&d)
	}
	d.Normalize()
	return d, err
}

// shrinkLeaf undoes growLeaf: every waiting added leaf is attached to the
// current front's parents, and the youngest of them is by construction the
// youngest node overall.
func (gr *Grower) shrinkLeaf(d *EdgeDelta) error {
	id := gr.added[len(gr.added)-1]
	if id != gr.N()-1 {
		return fmt.Errorf("core: inconsistent grower state: youngest node %d is not the newest added leaf %d", gr.N()-1, id)
	}
	if len(gr.queue) == 0 {
		return fmt.Errorf("core: grower has no pending leaves")
	}
	for _, p := range gr.queue[0].parents {
		gr.unlink(d, p, id)
	}
	gr.added = gr.added[:len(gr.added)-1]
	return gr.g.RemoveLastNode()
}

// unpromote undoes the Part 2 promotion: the newest level of k−1 shared
// leaves and the k−1 copies beside s revert to 2k−3 added leaves, and s
// returns to the queue front with its original parents — recovered as each
// copy's unique neighbor outside the new level.
func (gr *Grower) unpromote(d *EdgeDelta) error {
	copies, children, err := gr.lastLevel()
	if err != nil {
		return err
	}
	parents, err := gr.uplinks(copies, children)
	if err != nil {
		return err
	}
	if err := gr.dropLevel(d, copies, children); err != nil {
		return err
	}
	gr.unsplit(d, append(slices.Clone(copies), children[:gr.k-2]...), parents)
	return nil
}

// unformGroup undoes Part 2 of the Theorem 5 proof (α odd → even): the
// pending clique dissolves back into the oldest base leaf, the k−2 waiting
// added leaves and the departing joiner. Member i holds exactly one tree
// link — to parents[i], its unique neighbor outside the clique — which pins
// down the parent set of the base leaf being restored.
func (gr *Grower) unformGroup(d *EdgeDelta) error {
	k := gr.k
	members := gr.group
	joiner := members[k-1]
	if joiner != gr.N()-1 {
		return fmt.Errorf("core: inconsistent grower state: youngest node %d is not the clique joiner %d", gr.N()-1, joiner)
	}
	parents, err := gr.uplinks(members, members)
	if err != nil {
		return err
	}
	gr.clique(d, members, gr.unlink)
	gr.unlink(d, joiner, parents[k-1])
	if err := gr.g.RemoveLastNode(); err != nil {
		return err
	}
	gr.group = nil
	gr.unsplit(d, members[:k-1], parents)
	return nil
}

// undissolveGroup undoes Part 3 of the Theorem 5 proof (α even → odd): the
// newest shared-leaf level reverts to waiting added leaves on the current
// front, the departing joiner is retired, and the copies become a pending
// clique again.
func (gr *Grower) undissolveGroup(d *EdgeDelta) error {
	members, children, err := gr.lastLevel()
	if err != nil {
		return err
	}
	if err := gr.dropLevel(d, members, children); err != nil {
		return err
	}
	if len(gr.queue) == 0 {
		return fmt.Errorf("core: inconsistent grower state: no front leaf to host restored added leaves")
	}
	gr.clique(d, members, gr.link)
	gr.group = members
	gr.rehost(d, children[:gr.k-2])
	return nil
}

// lastLevel reads the level the last batch created: the last k−1 queue
// entries, which share one parent set — the k copies.
func (gr *Grower) lastLevel() (copies, children []int, err error) {
	k := gr.k
	if len(gr.queue) < k-1 {
		return nil, nil, fmt.Errorf("core: inconsistent grower state: %d pending leaves after a batch", len(gr.queue))
	}
	level := gr.queue[len(gr.queue)-(k-1):]
	children = make([]int, k-1)
	for i, pl := range level {
		children[i] = pl.node
	}
	if children[k-2] != gr.N()-1 {
		return nil, nil, fmt.Errorf("core: inconsistent grower state: youngest node %d is not the newest leaf %d", gr.N()-1, children[k-2])
	}
	return level[0].parents, children, nil
}

// dropLevel undoes addLevel's links: it tears the level down, takes it off
// the queue and retires the joiner.
func (gr *Grower) dropLevel(d *EdgeDelta, copies, children []int) error {
	for _, child := range children {
		for _, c := range copies {
			gr.unlink(d, c, child)
		}
	}
	gr.queue = gr.queue[:len(gr.queue)-len(children)]
	return gr.g.RemoveLastNode()
}

// unsplit undoes split: slots[0] returns to the queue front as a base leaf
// under parents, and the other slots become its waiting added leaves, each
// linked to every parent again.
func (gr *Grower) unsplit(d *EdgeDelta, slots, parents []int) {
	gr.queue = append([]pendingLeaf{{node: slots[0], parents: parents}}, gr.queue...)
	for _, p := range parents {
		gr.link(d, slots[0], p)
	}
	gr.rehost(d, slots[1:])
}

// rehost makes leaves the waiting added leaves, linked to every parent of
// the queue front.
func (gr *Grower) rehost(d *EdgeDelta, leaves []int) {
	for _, c := range leaves {
		for _, p := range gr.queue[0].parents {
			gr.link(d, c, p)
		}
	}
	gr.added = append(gr.added[:0], leaves...)
}
