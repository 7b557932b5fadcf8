package main

import (
	"fmt"
	"io"

	"lhg"
	"lhg/internal/check"
)

// runE21 drives the self-healing membership service through a crash-and-
// repair timeline: k-1 members crash, application broadcasts keep reaching
// every survivor through the degraded topology, a repair view change
// removes the dead members, and the rebuilt topology verifies as an LHG
// again. The table records coverage and churn at every step.
func runE21(w io.Writer) error {
	const (
		k     = 4
		start = 24
	)
	s, err := lhg.NewMembership(lhg.KDiamond, k, start)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "K-DIAMOND membership service, k=%d, %d initial members\n", k, start)
	fmt.Fprintf(w, "%-26s %-8s %-10s %-12s %-10s %-8s\n", "event", "members", "coverage", "view", "churn", "LHG")

	report := func(event string, churn int) error {
		res, err := s.Broadcast()
		if err != nil {
			return err
		}
		r, err := check.Verify(expCtx, s.Graph(), k, check.Options{Workers: verifyWorkers})
		if err != nil {
			return err
		}
		lhgCell := fmt.Sprintf("%t", r.IsLHG())
		if s.CrashedCount() > 0 {
			lhgCell = "degraded"
		}
		fmt.Fprintf(w, "%-26s %-8d %-10s %-12s %-10d %-8s\n",
			event, s.Size(),
			fmt.Sprintf("%d/%d", res.Reached, res.Alive),
			fmt.Sprintf("v%d(n=%d)", s.CurrentView().Version, s.CurrentView().Size),
			churn, lhgCell)
		if !res.Complete {
			return fmt.Errorf("broadcast lost survivors after %q", event)
		}
		return nil
	}

	if err := report("start", 0); err != nil {
		return err
	}
	// Three joins.
	for i := 0; i < 3; i++ {
		rep, err := s.ProposeJoin()
		if err != nil {
			return err
		}
		if err := report(fmt.Sprintf("join #%d", i+1), rep.Churn.Total()); err != nil {
			return err
		}
	}
	// k-1 simultaneous crashes.
	if err := s.Crash(5, 11, 19); err != nil {
		return err
	}
	if err := report("crash {5,11,19} (f=k-1)", 0); err != nil {
		return err
	}
	if !s.ConsistentViews() {
		return fmt.Errorf("alive views inconsistent before repair")
	}
	// Repair: one view change removes all three.
	rep, err := s.Repair()
	if err != nil {
		return err
	}
	if err := report("repair (remove dead)", rep.Churn.Total()); err != nil {
		return err
	}
	if !s.ConsistentViews() {
		return fmt.Errorf("views inconsistent after repair")
	}
	// Life goes on.
	repJ, err := s.ProposeJoin()
	if err != nil {
		return err
	}
	if err := report("join after repair", repJ.Churn.Total()); err != nil {
		return err
	}
	fmt.Fprintln(w, "guarantee chain: f <= k-1 crashes never broke a view change or an application")
	fmt.Fprintln(w, "broadcast; the repaired topology verifies as an LHG again")
	return nil
}
