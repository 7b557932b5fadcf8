package main

import (
	"fmt"
	"io"

	"lhg"
	"lhg/internal/check"
	"lhg/internal/flood"
	"lhg/internal/overlay"
	"lhg/internal/sim"
)

// runE15 compares the reconfiguration cost of the two maintenance modes the
// repository supports: canonical rebuild per join (E14) against the
// incremental growers derived from the Theorem 2/5 proofs, whose churn is
// O(k²) regardless of n.
func runE15(w io.Writer) error {
	const (
		k     = 4
		joins = 200
	)
	fmt.Fprintf(w, "k=%d, %d joins from n=%d; churn = links changed per join\n", k, joins, 2*k)
	fmt.Fprintf(w, "%-22s %-12s %-12s %-14s\n", "maintenance", "mean churn", "max churn", "churn at n=200")

	// Rebuild mode (baseline).
	for _, tc := range []struct {
		name string
		c    lhg.Constraint
	}{{"rebuild/ktree", lhg.KTree}, {"rebuild/kdiamond", lhg.KDiamond}} {
		o, err := overlay.New(k, 2*k, topo(tc.c))
		if err != nil {
			return err
		}
		mean, maxC, last, err := churnStats(joins, func() (overlay.Churn, error) { return o.Join() })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %-12.1f %-12d %-14d\n", tc.name, mean, maxC, last)
	}
	// Incremental mode (the extension).
	growers := []struct {
		name string
		mk   func(k, n int) (lhg.Reconfigurer, error)
	}{
		{name: "incremental/ktree", mk: lhg.NewKTreeGrowerAt},
		{name: "incremental/kdiamond", mk: lhg.NewKDiamondGrowerAt},
	}
	for _, tc := range growers {
		gr, err := tc.mk(k, 2*k)
		if err != nil {
			return err
		}
		inc, err := overlay.NewIncremental(gr)
		if err != nil {
			return err
		}
		mean, maxC, last, err := churnStats(joins, func() (overlay.Churn, error) { return inc.Join() })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %-12.1f %-12d %-14d\n", tc.name, mean, maxC, last)
		// The grown topology must still be a verified LHG.
		r, err := check.Verify(expCtx, gr.Graph(), k, check.Options{Workers: verifyWorkers})
		if err != nil {
			return err
		}
		if !r.IsLHG() {
			return fmt.Errorf("%s: grown topology failed LHG verification", tc.name)
		}
	}
	fmt.Fprintln(w, "shape: rebuild churn grows with n; incremental churn is bounded by O(k²) forever")
	return nil
}

func churnStats(joins int, join func() (overlay.Churn, error)) (mean float64, maxC, last int, err error) {
	total := 0
	for i := 0; i < joins; i++ {
		c, jerr := join()
		if jerr != nil {
			return 0, 0, 0, jerr
		}
		t := c.Total()
		total += t
		if t > maxC {
			maxC = t
		}
		last = t
	}
	return float64(total) / float64(joins), maxC, last, nil
}

// runE16 reproduces the related-work comparison (Lin/Marzullo/Masini,
// DISC 2000; spanning-tree multicast): deterministic flooding on a
// k-connected LHG guarantees delivery for f <= k-1; gossip with fanout < k
// and tree-based dissemination do not, even at f = 0 or f = 1.
func runE16(w io.Writer) error {
	const (
		n      = 64
		k      = 4
		trials = 150
	)
	g, err := lhg.Build(expCtx, lhg.KDiamond, n, k)
	if err != nil {
		return err
	}
	tree := g.BFSTree(0)
	rng := sim.NewRNG(2001)

	fmt.Fprintf(w, "topology base: K-DIAMOND(%d,%d); %d trials per cell; cell = P(full coverage)\n", n, k, trials)
	fmt.Fprintf(w, "%-26s %-8s %-8s %-8s %-8s\n", "protocol", "f=0", "f=1", "f=2", "f=3")

	// Deterministic flood on the LHG.
	if err := reliabilityRow(w, "flood on LHG (k=4)", func(f int) (float64, error) {
		return flood.Reliability(g, 0, f, trials, rng)
	}); err != nil {
		return err
	}
	// Deterministic flood on a spanning tree of the same graph.
	if err := reliabilityRow(w, "flood on spanning tree", func(f int) (float64, error) {
		return flood.Reliability(tree, 0, f, trials, rng)
	}); err != nil {
		return err
	}
	// Gossip with fanout below and at k.
	for _, fanout := range []int{2, 3, 4} {
		name := fmt.Sprintf("gossip fanout=%d on LHG", fanout)
		if err := reliabilityRow(w, name, func(f int) (float64, error) {
			return flood.GossipReliability(g, 0, fanout, f, trials, rng)
		}); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "shape: only deterministic flooding on the k-connected LHG holds 1.000 across f <= k-1;")
	fmt.Fprintln(w, "       trees die with their first interior failure, bounded-fanout gossip is probabilistic")
	return nil
}

func reliabilityRow(w io.Writer, name string, rel func(f int) (float64, error)) error {
	fmt.Fprintf(w, "%-26s", name)
	for f := 0; f <= 3; f++ {
		r, err := rel(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, " %-7.3f", r)
	}
	fmt.Fprintln(w)
	return nil
}
