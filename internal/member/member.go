// Package member composes the repository's layers into a membership
// service: a system of processes whose topology is the canonical LHG for
// the current view, whose view changes are disseminated by flooding over
// that same topology, and which repairs itself after crashes by proposing
// leaves for the dead members and applying the constructions' delta
// surgery.
//
// The service demonstrates the end-to-end guarantee chain:
//
//	k-connectivity  =>  view-change floods reach every alive member despite
//	                    up to k-1 crashed members still in the topology
//	                =>  all correct members apply the same view sequence
//	                =>  the next topology is consistent, and flooding keeps
//	                    working through the repair.
//
// The topology is maintained by a core.Grower churn engine instead of
// per-change canonical rebuilds: a join is one Grow, a repair is a batch
// of Shrinks merged into one net edge delta. Churn in the change reports
// is therefore the EXACT number of link operations a deployment would
// issue — O(k²) per membership event, independent of n — not the edge
// diff of two unrelated canonical builds.
package member

import (
	"fmt"

	"lhg/internal/core"
	"lhg/internal/flood"
	"lhg/internal/graph"
	"lhg/internal/overlay"
)

// EngineFunc builds a churn engine positioned at n members with
// connectivity target k: core.NewKTreeGrowerAt or core.NewKDiamondGrowerAt.
type EngineFunc func(k, n int) (*core.Grower, error)

// View is a membership epoch: a version counter and the member count of
// the epoch's topology.
type View struct {
	Version int
	Size    int
}

// ChangeReport describes the dissemination of one view change.
type ChangeReport struct {
	View     View // the view that was installed
	Rounds   int  // flood rounds to reach every alive member
	Messages int  // flood messages
	Applied  int  // alive members that applied the change
	// Churn counts the actual link edits of the delta surgery (exact
	// Added/Removed operation counts, Kept = surviving links).
	Churn overlay.Churn
	// Delta is the net edge surgery of the change, in canonical order.
	Delta graph.EdgeDelta
}

// System is a simulated membership service. Member ids are dense in the
// current topology; crashed members stay in the topology (and keep
// wasting links) until a leave is proposed for them — exactly the window
// the k-connectivity guarantee must cover.
type System struct {
	k       int
	engine  *core.Grower
	view    View
	views   []View // per-member installed view
	crashed []bool
}

// New creates a system of `initial` members on the engine's topology.
func New(k, initial int, engine EngineFunc) (*System, error) {
	if engine == nil {
		return nil, fmt.Errorf("member: nil engine func")
	}
	eng, err := engine(k, initial)
	if err != nil {
		return nil, fmt.Errorf("member: initial topology: %w", err)
	}
	s := &System{
		k:       k,
		engine:  eng,
		view:    View{Version: 0, Size: initial},
		views:   make([]View, initial),
		crashed: make([]bool, initial),
	}
	for i := range s.views {
		s.views[i] = s.view
	}
	return s, nil
}

// Size returns the current topology size (including crashed members not
// yet removed).
func (s *System) Size() int { return s.engine.N() }

// K returns the connectivity target.
func (s *System) K() int { return s.k }

// CurrentView returns the view of the latest installed epoch.
func (s *System) CurrentView() View { return s.view }

// Graph returns the current topology. Frozen graphs are immutable, so the
// caller shares the view without a defensive copy.
func (s *System) Graph() *graph.Graph { return s.engine.Graph() }

// CrashedCount returns how many members are crashed but still wired in.
func (s *System) CrashedCount() int {
	c := 0
	for _, dead := range s.crashed {
		if dead {
			c++
		}
	}
	return c
}

// Crash marks members as failed. They stop participating immediately but
// remain in the topology until repaired away.
func (s *System) Crash(ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= s.engine.N() {
			return fmt.Errorf("member: unknown member %d", id)
		}
		s.crashed[id] = true
	}
	return nil
}

// aliveSource returns the lowest-id alive member (the sequencer).
func (s *System) aliveSource() (int, error) {
	for id, dead := range s.crashed {
		if !dead {
			return id, nil
		}
	}
	return 0, fmt.Errorf("member: every member has crashed")
}

// disseminate floods a view change from the sequencer over the current
// topology and returns the flood result.
func (s *System) disseminate() (*flood.Result, int, error) {
	src, err := s.aliveSource()
	if err != nil {
		return nil, 0, err
	}
	var dead []int
	for id, d := range s.crashed {
		if d {
			dead = append(dead, id)
		}
	}
	res, err := flood.Run(s.engine.Graph(), src, flood.Failures{Nodes: dead})
	if err != nil {
		return nil, 0, err
	}
	return res, src, nil
}

// deltaChurn converts a net edge delta into the overlay churn accounting:
// exact edit counts, with Kept the links of the new topology that required
// no operation.
func deltaChurn(d graph.EdgeDelta, newSize int) overlay.Churn {
	return overlay.Churn{
		Added:   len(d.Added),
		Removed: len(d.Removed),
		Kept:    newSize - len(d.Added),
	}
}

// ProposeJoin admits one member: the view change floods over the current
// topology, every alive member applies it, and the engine grows the
// topology by one delta surgery. The joiner starts with the new view
// installed.
func (s *System) ProposeJoin() (*ChangeReport, error) {
	res, _, err := s.disseminate()
	if err != nil {
		return nil, err
	}
	if !res.Complete {
		return nil, fmt.Errorf("member: view change failed to reach %d members (connectivity exhausted)",
			res.Alive-res.Reached)
	}
	d, err := s.engine.Grow()
	if err != nil {
		return nil, fmt.Errorf("member: join surgery: %w", err)
	}
	s.view = View{Version: s.view.Version + 1, Size: s.engine.N()}
	for id := range s.views {
		if !s.crashed[id] {
			s.views[id] = s.view
		}
	}
	s.views = append(s.views, s.view)
	s.crashed = append(s.crashed, false)
	return &ChangeReport{
		View: s.view, Rounds: res.Rounds, Messages: res.Messages,
		Applied: res.Reached, Churn: deltaChurn(d, s.engine.Graph().Size()),
		Delta: d,
	}, nil
}

// Repair removes every crashed member in one view change: the change
// floods over the degraded topology (tolerable while crashed <= k-1), the
// engine shrinks by one batched delta surgery — the leaves merged into
// their net O(changed-edges) edit set, no rebuild — and survivors relabel
// densely (alive members holding a departing label take over the freed
// low ids, re-pointing their surviving links without tearing them down).
func (s *System) Repair() (*ChangeReport, error) {
	deadCount := s.CrashedCount()
	if deadCount == 0 {
		return nil, fmt.Errorf("member: nothing to repair")
	}
	newSize := s.engine.N() - deadCount
	if newSize < 2*s.k {
		return nil, fmt.Errorf("member: repair would shrink to %d members, below the minimal 2k=%d",
			newSize, 2*s.k)
	}
	res, _, err := s.disseminate()
	if err != nil {
		return nil, err
	}
	if !res.Complete {
		return nil, fmt.Errorf("member: repair flood failed to reach %d members", res.Alive-res.Reached)
	}
	leaves := make([]core.Change, deadCount)
	for i := range leaves {
		leaves[i] = core.ChangeLeave
	}
	d, err := s.engine.Apply(leaves)
	if err != nil {
		return nil, fmt.Errorf("member: repair surgery: %w", err)
	}
	s.view = View{Version: s.view.Version + 1, Size: newSize}
	views := make([]View, 0, newSize)
	for id := range s.views {
		if !s.crashed[id] {
			views = append(views, s.view)
		}
	}
	s.views = views
	s.crashed = make([]bool, newSize)
	return &ChangeReport{
		View: s.view, Rounds: res.Rounds, Messages: res.Messages,
		Applied: res.Reached, Churn: deltaChurn(d, s.engine.Graph().Size()),
		Delta: d,
	}, nil
}

// Views returns the per-member installed views (crashed members report the
// last view they saw).
func (s *System) Views() []View { return append([]View(nil), s.views...) }

// ConsistentViews reports whether every alive member has installed the
// current view.
func (s *System) ConsistentViews() bool {
	for id, v := range s.views {
		if id < len(s.crashed) && s.crashed[id] {
			continue
		}
		if v != s.view {
			return false
		}
	}
	return true
}

// Broadcast floods an application message over the current (possibly
// degraded) topology from the sequencer; it reports delivery coverage.
func (s *System) Broadcast() (*flood.Result, error) {
	res, _, err := s.disseminate()
	return res, err
}
