// Package overlay maintains a Logarithmic-Harary-Graph topology over a
// dynamic membership — the peer-to-peer scenario motivating the paper: the
// number of processes n is arbitrary and changes over time, so the topology
// construction must exist for *every* pair (n,k), which is exactly what the
// K-TREE/K-DIAMOND constraints provide (and the original Jenkins–Demers
// rule does not).
//
// On every membership change the overlay rebuilds the canonical topology
// for the new size and reports the edge churn (links torn down and set up),
// the cost a deployment would pay in reconfiguration messages.
package overlay

import (
	"fmt"

	"lhg/internal/flood"
	"lhg/internal/graph"
)

// TopologyFunc builds the overlay topology for n members with connectivity
// target k. The canonical constructions in internal/core satisfy it.
type TopologyFunc func(n, k int) (*graph.Graph, error)

// Churn summarizes the edge difference between two consecutive topologies.
type Churn struct {
	Added   int // links created
	Removed int // links torn down
	Kept    int // links surviving the rebuild
}

// Total returns the number of link operations (setup + teardown).
func (c Churn) Total() int { return c.Added + c.Removed }

// Overlay is a dynamic-membership topology manager. Members are the dense
// ids 0..Size()-1; a leave is modeled as the last member departing (the
// canonical constructions relabel internally anyway, so any-node departure
// costs the same set of edge diffs).
type Overlay struct {
	k        int
	topology TopologyFunc
	g        *graph.Graph
}

// New creates an overlay of initial members using the given topology.
func New(k, initial int, topology TopologyFunc) (*Overlay, error) {
	if topology == nil {
		return nil, fmt.Errorf("overlay: nil topology func")
	}
	g, err := topology(initial, k)
	if err != nil {
		return nil, fmt.Errorf("overlay: initial topology: %w", err)
	}
	return &Overlay{k: k, topology: topology, g: g}, nil
}

// Size returns the current number of members.
func (o *Overlay) Size() int { return o.g.Order() }

// Graph returns the current topology. Frozen graphs are immutable, so the
// caller shares the view without a defensive copy.
func (o *Overlay) Graph() *graph.Graph { return o.g }

// K returns the connectivity target.
func (o *Overlay) K() int { return o.k }

// Join grows the membership by one and rebuilds, returning the churn.
func (o *Overlay) Join() (Churn, error) { return o.resize(o.g.Order() + 1) }

// Leave shrinks the membership by one and rebuilds, returning the churn.
func (o *Overlay) Leave() (Churn, error) { return o.resize(o.g.Order() - 1) }

func (o *Overlay) resize(n int) (Churn, error) {
	ng, err := o.topology(n, o.k)
	if err != nil {
		return Churn{}, fmt.Errorf("overlay: rebuild at n=%d: %w", n, err)
	}
	c := diff(o.g, ng)
	o.g = ng
	return c, nil
}

// Broadcast floods a message from source over the current topology under
// the given failures.
func (o *Overlay) Broadcast(source int, f flood.Failures) (*flood.Result, error) {
	return flood.Run(o.g, source, f)
}

// diff counts the edge changes from old to new, comparing the edges between
// ids present in both.
func diff(oldG, newG *graph.Graph) Churn {
	var c Churn
	for _, e := range oldG.Edges() {
		if newG.HasEdge(e.U, e.V) {
			c.Kept++
		} else {
			c.Removed++
		}
	}
	c.Added = newG.Size() - c.Kept
	return c
}
