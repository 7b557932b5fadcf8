package core

import (
	"fmt"

	"lhg/internal/graph"
)

// Change is one membership event in a reconfiguration batch.
type Change uint8

const (
	// ChangeJoin admits one node (Grow).
	ChangeJoin Change = iota
	// ChangeLeave retires one node (Shrink).
	ChangeLeave
)

func (c Change) String() string {
	switch c {
	case ChangeJoin:
		return "join"
	case ChangeLeave:
		return "leave"
	}
	return fmt.Sprintf("Change(%d)", uint8(c))
}

// Reconfigurer is the unified churn engine implemented by KTreeGrower and
// KDiamondGrower: joins via the constructive proofs' growth steps, leaves
// via their inverse surgery, and batches via Apply. The graph satisfies its
// constraint (and hence is an LHG) after every single step, so a
// reconfigurer can absorb arbitrary interleavings of joins and leaves
// without any rebuild.
type Reconfigurer interface {
	// Grow admits one node; the delta is canonical.
	Grow() (EdgeDelta, error)
	// Shrink retires the youngest node; the delta is canonical.
	Shrink() (EdgeDelta, error)
	// Apply performs a batch of changes and returns the NET edge surgery:
	// an edge set up and later torn down inside the batch (or vice versa)
	// does not appear in the result. On error the returned delta covers
	// the prefix of steps that did complete.
	Apply(changes []Change) (EdgeDelta, error)
	// Graph returns the frozen view of the current topology.
	Graph() *graph.Graph
	// N returns the current number of nodes.
	N() int
	// K returns the connectivity target.
	K() int
}

var (
	_ Reconfigurer = (*KTreeGrower)(nil)
	_ Reconfigurer = (*KDiamondGrower)(nil)
)

// Apply performs a batch of joins and leaves, returning the net surgery.
func (gr *KTreeGrower) Apply(changes []Change) (EdgeDelta, error) {
	return applyChanges(gr, changes)
}

// Apply performs a batch of joins and leaves, returning the net surgery.
func (gr *KDiamondGrower) Apply(changes []Change) (EdgeDelta, error) {
	return applyChanges(gr, changes)
}

// applyChanges drives the per-step engine and merges the step deltas into
// one net delta. Merging tracks a signed count per edge: a simple graph
// forces operations on one edge to alternate, so every net count lands in
// {−1, 0, +1} — +1 is a net addition, −1 a net removal, 0 cancels out
// (this is why add→remove→add inside one batch correctly survives as a
// single net addition rather than cancelling pairwise).
func applyChanges(r Reconfigurer, changes []Change) (EdgeDelta, error) {
	net := make(map[graph.Edge]int)
	record := func(d EdgeDelta) {
		for _, e := range d.Added {
			net[e]++
		}
		for _, e := range d.Removed {
			net[e]--
		}
	}
	finish := func() EdgeDelta {
		var out EdgeDelta
		for e, c := range net {
			switch {
			case c > 0:
				out.Added = append(out.Added, e)
			case c < 0:
				out.Removed = append(out.Removed, e)
			}
		}
		out.Normalize()
		return out
	}
	for i, c := range changes {
		var d EdgeDelta
		var err error
		switch c {
		case ChangeJoin:
			d, err = r.Grow()
		case ChangeLeave:
			d, err = r.Shrink()
		default:
			return finish(), fmt.Errorf("core: unknown change %v at batch index %d", c, i)
		}
		record(d)
		if err != nil {
			return finish(), fmt.Errorf("core: batch step %d (%v): %w", i, c, err)
		}
	}
	return finish(), nil
}

// NewKTreeGrowerAt returns a K-TREE reconfigurer fast-forwarded to n nodes
// — the state is the unique one the deterministic construction reaches, so
// it is interchangeable with a grower that arrived at n step by step.
func NewKTreeGrowerAt(k, n int) (*KTreeGrower, error) {
	if err := validatePair("K-TREE", n, k); err != nil {
		return nil, err
	}
	gr, err := NewKTreeGrower(k)
	if err != nil {
		return nil, err
	}
	for gr.N() < n {
		if _, err := gr.Grow(); err != nil {
			return nil, err
		}
	}
	return gr, nil
}

// NewKDiamondGrowerAt returns a K-DIAMOND reconfigurer fast-forwarded to n
// nodes; see NewKTreeGrowerAt.
func NewKDiamondGrowerAt(k, n int) (*KDiamondGrower, error) {
	if err := validatePair("K-DIAMOND", n, k); err != nil {
		return nil, err
	}
	gr, err := NewKDiamondGrower(k)
	if err != nil {
		return nil, err
	}
	for gr.N() < n {
		if _, err := gr.Grow(); err != nil {
			return nil, err
		}
	}
	return gr, nil
}
