package main

import (
	"fmt"
	"io"

	"lhg/internal/check"
	"lhg/internal/core"
	"lhg/internal/flow"
	"lhg/internal/graph"
)

// runE1 rebuilds the Figure 2 K-TREE witnesses and verifies every LHG
// property exactly.
func runE1(w io.Writer) error {
	pairs := []struct{ n, k int }{{6, 3}, {9, 3}, {10, 3}}
	fmt.Fprintf(w, "%-8s %-4s %-4s %-8s %-8s %-5s %-3s %-3s %-8s %-5s\n",
		"pair", "m", "diam", "degmin", "degmax", "reg", "κ", "λ", "minimal", "LHG")
	for _, p := range pairs {
		kt, err := core.BuildKTree(p.n, p.k)
		if err != nil {
			return err
		}
		if err := core.ValidateKTree(kt.Blue); err != nil {
			return fmt.Errorf("(%d,%d) constraint violated: %w", p.n, p.k, err)
		}
		if err := printWitnessRow(w, fmt.Sprintf("(%d,%d)", p.n, p.k), kt.Real, p.k); err != nil {
			return err
		}
	}
	return nil
}

// runE2 rebuilds the Figure 3 K-DIAMOND witnesses.
func runE2(w io.Writer) error {
	pairs := []struct{ n, k int }{{7, 3}, {8, 3}, {13, 3}, {14, 3}}
	fmt.Fprintf(w, "%-8s %-4s %-4s %-8s %-8s %-5s %-3s %-3s %-8s %-5s\n",
		"pair", "m", "diam", "degmin", "degmax", "reg", "κ", "λ", "minimal", "LHG")
	for _, p := range pairs {
		kd, err := core.BuildKDiamond(p.n, p.k)
		if err != nil {
			return err
		}
		if err := core.ValidateKDiamond(kd.Blue); err != nil {
			return fmt.Errorf("(%d,%d) constraint violated: %w", p.n, p.k, err)
		}
		if err := printWitnessRow(w, fmt.Sprintf("(%d,%d)", p.n, p.k), kd.Real, p.k); err != nil {
			return err
		}
	}
	return nil
}

func printWitnessRow(w io.Writer, name string, real *core.Realization, k int) error {
	r, err := check.Verify(expCtx, real.Graph, k, check.Options{Workers: verifyWorkers})
	if err != nil {
		return err
	}
	if !r.IsLHG() {
		return fmt.Errorf("%s failed verification: %s", name, r)
	}
	fmt.Fprintf(w, "%-8s %-4d %-4d %-8d %-8d %-5t %-3d %-3d %-8t %-5t\n",
		name, r.M, r.Diameter, r.MinDegree, r.MaxDegree, r.Regular,
		r.NodeConnectivity, r.EdgeConnectivity, r.LinkMinimal, r.IsLHG())
	return nil
}

// runE3 reproduces Figure 1: three internally vertex-disjoint paths between
// a same-tree pair and a cross-tree pair on the (21,3) K-TREE graph.
func runE3(w io.Writer) error {
	kt, err := core.BuildKTree(21, 3)
	if err != nil {
		return err
	}
	g, labels := kt.Real.Graph, kt.Real.Labels

	// Same-tree pair (Figure 1a): two copy-0 internal nodes, siblings under
	// the root, hence non-adjacent.
	s := kt.Real.CopyNode[0][1]
	t := kt.Real.CopyNode[0][2]
	if err := printDisjointPaths(w, "same tree (s,t in T1)", g, labels, s, t, 3); err != nil {
		return err
	}
	// Cross-tree pair (Figure 1b): an internal node of copy 0 and one of
	// copy 2.
	s = kt.Real.CopyNode[0][1]
	t = kt.Real.CopyNode[2][3]
	return printDisjointPaths(w, "cross tree (s in T1, t in T3)", g, labels, s, t, 3)
}

func printDisjointPaths(w io.Writer, title string, g *graph.Graph, labels map[int]string, s, t, k int) error {
	paths, err := flow.VertexDisjointPaths(g, s, t)
	if err != nil {
		return err
	}
	if len(paths) < k {
		return fmt.Errorf("%s: found %d disjoint paths, want >= %d", title, len(paths), k)
	}
	fmt.Fprintf(w, "%s: %d internally vertex-disjoint paths %s -> %s\n",
		title, len(paths), labels[s], labels[t])
	for i, p := range paths {
		fmt.Fprintf(w, "  path %d:", i+1)
		for _, v := range p {
			fmt.Fprintf(w, " %s", labels[v])
		}
		fmt.Fprintln(w)
	}
	return nil
}
