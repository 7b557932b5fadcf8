package overlay

import (
	"fmt"

	"lhg/internal/core"
	"lhg/internal/flood"
	"lhg/internal/graph"
)

// Incremental is an overlay maintained by graph surgery instead of
// canonical rebuilds: joins AND leaves cost a constant (in n) number of
// link edits — see experiments E15 and E27. Compared to Overlay, churn
// figures here are exact edit counts of the surgery actually issued.
type Incremental struct {
	gr *core.Grower
}

// NewIncremental wraps a churn engine as an overlay.
func NewIncremental(gr *core.Grower) (*Incremental, error) {
	if gr == nil {
		return nil, fmt.Errorf("overlay: nil grower")
	}
	return &Incremental{gr: gr}, nil
}

// Size returns the current number of members.
func (o *Incremental) Size() int { return o.gr.N() }

// K returns the connectivity target.
func (o *Incremental) K() int { return o.gr.K() }

// Graph returns the frozen (immutable) view of the current topology.
func (o *Incremental) Graph() *graph.Graph { return o.gr.Graph() }

// deltaChurn converts a surgery delta into the churn accounting shared
// with the rebuild overlay: exact edit counts, Kept = links of the new
// topology that required no operation.
func (o *Incremental) deltaChurn(d graph.EdgeDelta) Churn {
	return Churn{
		Added:   len(d.Added),
		Removed: len(d.Removed),
		Kept:    o.gr.Graph().Size() - len(d.Added),
	}
}

// Join admits one member and returns the link churn (setup + teardown
// counts mirroring Overlay's accounting).
func (o *Incremental) Join() (Churn, error) {
	d, err := o.gr.Grow()
	if err != nil {
		return Churn{}, fmt.Errorf("overlay: incremental join: %w", err)
	}
	return o.deltaChurn(d), nil
}

// Leave removes the youngest member by inverse surgery and returns the
// link churn. Departures below the minimal size 2k fail.
func (o *Incremental) Leave() (Churn, error) {
	d, err := o.gr.Shrink()
	if err != nil {
		return Churn{}, fmt.Errorf("overlay: incremental leave: %w", err)
	}
	return o.deltaChurn(d), nil
}

// Apply executes a batch of membership changes and returns the churn of
// the NET delta — opposite edits inside the batch cancel, so the figure is
// the cost of reconfiguring straight to the final topology. On error the
// completed prefix stays applied and its churn is returned with the error.
func (o *Incremental) Apply(changes []core.Change) (Churn, error) {
	d, err := o.gr.Apply(changes)
	c := o.deltaChurn(d)
	if err != nil {
		return c, fmt.Errorf("overlay: incremental batch: %w", err)
	}
	return c, nil
}

// Broadcast floods from source over the current topology under failures.
func (o *Incremental) Broadcast(source int, f flood.Failures) (*flood.Result, error) {
	return flood.Run(o.gr.Graph(), source, f)
}
