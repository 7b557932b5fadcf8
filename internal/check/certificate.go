package check

import (
	"context"
	"fmt"

	"lhg/internal/flow"
	"lhg/internal/graph"
)

// Certificate is a machine-checkable proof of a graph's exact node
// connectivity κ: a family of κ internally vertex-disjoint paths for a
// witness pair (no node cut smaller than κ can separate them — and the
// pair is chosen so this lower-bounds the graph's connectivity), plus an
// actual vertex cut of size κ (no connectivity above κ). Validate re-checks
// both halves from scratch, so a verifier needs no max-flow code — only
// path checking and a BFS.
type Certificate struct {
	K int // the certified connectivity value

	// Lower bound: PathFamilies[i] is a set of K internally vertex-disjoint
	// paths between a pair of nodes. One family per sampled pair; the
	// sampled pairs cover the Esfahanian–Hakimi witness set, so together
	// they certify κ >= K.
	PathFamilies [][][]int

	// Upper bound: removing Cut disconnects the graph, so κ <= len(Cut).
	// Empty when the graph is complete (no cut exists; κ = n-1).
	Cut []int
}

// Certify produces a connectivity certificate for g. It is more expensive
// than VertexConnectivity (it extracts paths, not just values).
func Certify(g *graph.Graph) (*Certificate, error) {
	if n := g.Order(); n < 2 {
		return nil, fmt.Errorf("check: cannot certify a graph with %d nodes", n)
	}
	return certify(g, g)
}

// CertifySparse produces the same kind of certificate as Certify, but
// extracts κ and the disjoint path families from the Nagamochi–Ibaraki
// (δ+1)-certificate of g instead of g itself. κ(cert) = κ(G) exactly for
// that parameter (see graph.SparseCertificate), and every path of a
// spanning subgraph is a path of g, so the resulting Certificate
// validates against the ORIGINAL graph. Only the minimum cut is computed
// on the full graph: a vertex cut of the sparse view need not disconnect
// g, so the upper-bound half cannot be sparsified.
func CertifySparse(g *graph.Graph) (*Certificate, error) {
	if n := g.Order(); n < 2 {
		return nil, fmt.Errorf("check: cannot certify a graph with %d nodes", n)
	}
	minDeg, _ := g.MinDegree()
	return certify(g, graph.SparseCertificate(g, minDeg+1))
}

// certify extracts the lower-bound half (κ and the disjoint path
// families) from view — either g itself or a connectivity-preserving
// spanning subgraph of it — and the cut from g.
func certify(g, view *graph.Graph) (*Certificate, error) {
	n := g.Order()
	kappa, err := flow.VertexConnectivity(context.TODO(), view, 1, flow.NoHints)
	if err != nil {
		return nil, err
	}
	cert := &Certificate{K: kappa}
	if kappa == 0 {
		return cert, nil // disconnected: empty cut, no paths needed
	}
	minDeg, v := view.MinDegree()
	if minDeg == n-1 {
		// Complete graph: certify with the direct path families only.
		for t := 0; t < n && len(cert.PathFamilies) < 3; t++ {
			if t == v {
				continue
			}
			paths, err := flow.VertexDisjointPaths(view, v, t)
			if err != nil {
				return nil, err
			}
			cert.PathFamilies = append(cert.PathFamilies, paths[:kappa])
		}
		return cert, nil
	}

	// Lower bound: κ disjoint paths for every Esfahanian–Hakimi pair of
	// the view. By Menger each pair admits >= κ(view) = κ(g) of them.
	addPair := func(s, t int) error {
		paths, err := flow.VertexDisjointPaths(view, s, t)
		if err != nil {
			return err
		}
		if len(paths) < kappa {
			return fmt.Errorf("check: pair (%d,%d) admits only %d disjoint paths", s, t, len(paths))
		}
		cert.PathFamilies = append(cert.PathFamilies, paths[:kappa])
		return nil
	}
	isNbr := make([]bool, n)
	for _, w := range view.Neighbors(v) {
		isNbr[w] = true
	}
	for t := 0; t < n; t++ {
		if t == v || isNbr[t] {
			continue
		}
		if err := addPair(v, t); err != nil {
			return nil, err
		}
	}
	nbrs := view.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if view.HasEdge(nbrs[i], nbrs[j]) {
				continue
			}
			if err := addPair(nbrs[i], nbrs[j]); err != nil {
				return nil, err
			}
		}
	}

	// Upper bound: a concrete minimum cut — always of the full graph.
	cut, err := minimumCut(g, kappa)
	if err != nil {
		return nil, err
	}
	cert.Cut = cut
	return cert, nil
}

// minimumCut finds an actual vertex cut of size kappa.
func minimumCut(g *graph.Graph, kappa int) ([]int, error) {
	n := g.Order()
	minDeg, v := g.MinDegree()
	_ = minDeg
	isNbr := make([]bool, n)
	for _, w := range g.Neighbors(v) {
		isNbr[w] = true
	}
	for t := 0; t < n; t++ {
		if t == v || isNbr[t] {
			continue
		}
		cut, err := flow.MinVertexCutSet(g, v, t)
		if err == nil && len(cut) == kappa {
			return cut, nil
		}
	}
	nbrs := g.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				continue
			}
			cut, err := flow.MinVertexCutSet(g, nbrs[i], nbrs[j])
			if err == nil && len(cut) == kappa {
				return cut, nil
			}
		}
	}
	return nil, fmt.Errorf("check: no cut of size %d found (connectivity mismatch)", kappa)
}

// Validate re-verifies the certificate against g from first principles:
// every path family consists of K valid, internally disjoint paths, and
// removing Cut disconnects g. It uses no flow machinery.
func (c *Certificate) Validate(g *graph.Graph) error {
	if c.K == 0 {
		if g.Connected() && g.Order() > 1 {
			return fmt.Errorf("check: certificate claims κ=0 for a connected graph")
		}
		return nil
	}
	if len(c.PathFamilies) == 0 {
		return fmt.Errorf("check: certificate has no path families")
	}
	for fi, family := range c.PathFamilies {
		if len(family) != c.K {
			return fmt.Errorf("check: family %d has %d paths, want %d", fi, len(family), c.K)
		}
		if err := validateFamily(g, family); err != nil {
			return fmt.Errorf("check: family %d: %w", fi, err)
		}
	}
	if len(c.Cut) > 0 {
		if len(c.Cut) != c.K {
			return fmt.Errorf("check: cut has %d nodes, want %d", len(c.Cut), c.K)
		}
		removed := make([]bool, g.Order())
		for _, v := range c.Cut {
			if v < 0 || v >= g.Order() {
				return fmt.Errorf("check: cut node %d out of range", v)
			}
			removed[v] = true
		}
		if g.ConnectedIgnoring(removed) {
			return fmt.Errorf("check: removing the cut does not disconnect the graph")
		}
	} else if minDeg, _ := g.MinDegree(); minDeg != g.Order()-1 {
		return fmt.Errorf("check: missing cut on a non-complete graph")
	}
	return nil
}

func validateFamily(g *graph.Graph, family [][]int) error {
	if len(family) == 0 {
		return fmt.Errorf("empty family")
	}
	s, t := family[0][0], family[0][len(family[0])-1]
	if s == t {
		return fmt.Errorf("degenerate pair")
	}
	used := make(map[int]bool)
	for pi, p := range family {
		if len(p) < 2 || p[0] != s || p[len(p)-1] != t {
			return fmt.Errorf("path %d endpoints", pi)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				return fmt.Errorf("path %d uses missing edge (%d,%d)", pi, p[i], p[i+1])
			}
		}
		for _, v := range p[1 : len(p)-1] {
			if v == s || v == t {
				return fmt.Errorf("path %d revisits an endpoint", pi)
			}
			if used[v] {
				return fmt.Errorf("node %d shared between paths", v)
			}
			used[v] = true
		}
	}
	return nil
}
