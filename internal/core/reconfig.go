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

// Apply performs a batch of joins and leaves and returns the NET edge
// surgery: an edge set up and later torn down inside the batch (or vice
// versa) does not appear in the result. On error the returned delta covers
// the prefix of steps that did complete.
//
// Merging tracks a signed count per edge: a simple graph forces
// operations on one edge to alternate, so every net count lands in
// {−1, 0, +1} — +1 is a net addition, −1 a net removal, 0 cancels out
// (this is why add→remove→add inside one batch correctly survives as a
// single net addition rather than cancelling pairwise).
func (gr *Grower) Apply(changes []Change) (EdgeDelta, error) {
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
			d, err = gr.Grow()
		case ChangeLeave:
			d, err = gr.Shrink()
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
