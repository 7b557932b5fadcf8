package flood

import (
	"context"
	"fmt"

	"lhg/internal/flow"
	"lhg/internal/graph"
	"lhg/internal/obs"
	"lhg/internal/sim"
)

// Adversary telemetry: how many nodes/links each planner killed, and how
// often the planner found an actual disconnecting cut (f >= connectivity).
var (
	mAdvNodeKills = obs.NewCounter("flood.adversary.node_kills")
	mAdvLinkKills = obs.NewCounter("flood.adversary.link_kills")
	mAdvCutsFound = obs.NewCounter("flood.adversary.cuts_found")
)

// RandomNodeFailures draws f distinct crashed nodes, never including the
// source, using the supplied generator.
func RandomNodeFailures(g *graph.Graph, source, f int, rng *sim.RNG) (Failures, error) {
	n := g.Order()
	if f < 0 || f >= n {
		return Failures{}, fmt.Errorf("flood: cannot fail %d of %d nodes", f, n)
	}
	var nodes []int
	for _, v := range rng.Perm(n) {
		if len(nodes) == f {
			break
		}
		if v == source {
			continue
		}
		nodes = append(nodes, v)
	}
	return Failures{Nodes: nodes}, nil
}

// RandomLinkFailures draws f distinct failed links using the supplied
// generator.
func RandomLinkFailures(g *graph.Graph, f int, rng *sim.RNG) (Failures, error) {
	edges := g.Edges()
	if f < 0 || f > len(edges) {
		return Failures{}, fmt.Errorf("flood: cannot fail %d of %d links", f, len(edges))
	}
	idx := rng.Sample(len(edges), f)
	links := make([]graph.Edge, 0, f)
	for _, i := range idx {
		links = append(links, edges[i])
	}
	return Failures{Links: links}, nil
}

// AdversarialNodeFailures picks the f crashed nodes that hurt the flood
// most. For f >= κ(G) it returns an actual minimum vertex cut (padded with
// neighbors of the source), which disconnects the flood; for f < κ it
// returns the f source neighbors — the choice that maximizes latency
// without being able to disconnect a k-connected graph.
func AdversarialNodeFailures(g *graph.Graph, source, f int) (Failures, error) {
	n := g.Order()
	if f < 0 || f >= n {
		return Failures{}, fmt.Errorf("flood: cannot fail %d of %d nodes", f, n)
	}
	if f == 0 {
		return Failures{}, nil
	}
	kappa, err := flow.VertexConnectivity(context.TODO(), g, 1)
	if err != nil {
		return Failures{}, err
	}
	if f >= kappa {
		if cut := findCut(g, source, f); cut != nil {
			mAdvCutsFound.Inc()
			mAdvNodeKills.Add(int64(len(cut)))
			return Failures{Nodes: cut}, nil
		}
	}
	nbrs := g.Neighbors(source)
	nodes := make([]int, 0, f)
	for _, v := range nbrs {
		if len(nodes) == f {
			break
		}
		nodes = append(nodes, v)
	}
	for v := 0; len(nodes) < f && v < n; v++ {
		if v != source && !contains(nodes, v) {
			nodes = append(nodes, v)
		}
	}
	mAdvNodeKills.Add(int64(len(nodes)))
	return Failures{Nodes: nodes}, nil
}

// findCut searches for a vertex cut of size <= f that excludes the source,
// preferring cuts that separate the source from some other node.
func findCut(g *graph.Graph, source, f int) []int {
	n := g.Order()
	for t := 0; t < n; t++ {
		if t == source || g.HasEdge(source, t) {
			continue
		}
		cut, err := flow.MinVertexCutSet(g, source, t)
		if err != nil || len(cut) > f || contains(cut, source) {
			continue
		}
		return cut
	}
	return nil
}

// Reliability estimates, over `trials` seeded random failure draws of f
// crashed nodes, the fraction of floods that reach every alive node. On a
// k-connected graph the result is exactly 1 for every f <= k-1.
func Reliability(g *graph.Graph, source, f, trials int, rng *sim.RNG) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("flood: trials must be positive, got %d", trials)
	}
	ok := 0
	for i := 0; i < trials; i++ {
		fails, err := RandomNodeFailures(g, source, f, rng)
		if err != nil {
			return 0, err
		}
		res, err := Run(g, source, fails)
		if err != nil {
			return 0, err
		}
		if res.Complete {
			ok++
		}
	}
	return float64(ok) / float64(trials), nil
}

// Unreached runs the flood simulator under f and returns the alive nodes
// the flood cannot reach — the exact delivery gap expected when the same
// failures are injected at the socket layer, which is how the chaos
// harness asserts that a simulator-computed cut really severs the TCP
// cluster.
func Unreached(g *graph.Graph, source int, f Failures) ([]int, error) {
	res, err := Run(g, source, f)
	if err != nil {
		return nil, err
	}
	var out []int
	for v, round := range res.FirstHeard {
		if round == -1 && !contains(f.Nodes, v) {
			out = append(out, v)
		}
	}
	return out, nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// AdversarialLinkFailures picks the f failed links that hurt the flood
// most: for f >= λ(G) it returns an actual minimum edge cut (padded with
// source-incident links); below λ it fails the source's own links, the
// choice that maximizes latency without being able to disconnect a k-link-
// connected graph.
func AdversarialLinkFailures(g *graph.Graph, source, f int) (Failures, error) {
	m := g.Size()
	if f < 0 || f > m {
		return Failures{}, fmt.Errorf("flood: cannot fail %d of %d links", f, m)
	}
	if f == 0 {
		return Failures{}, nil
	}
	lambda, err := flow.EdgeConnectivity(context.TODO(), g, 1)
	if err != nil {
		return Failures{}, err
	}
	if f >= lambda {
		if cut, err := flow.GlobalMinEdgeCutSet(g); err == nil && len(cut) <= f {
			links := cut
			for _, e := range g.Edges() {
				if len(links) == f {
					break
				}
				if !containsEdge(links, e) {
					links = append(links, e)
				}
			}
			mAdvCutsFound.Inc()
			mAdvLinkKills.Add(int64(len(links)))
			return Failures{Links: links}, nil
		}
	}
	var links []graph.Edge
	for _, v := range g.Neighbors(source) {
		if len(links) == f {
			break
		}
		links = append(links, normalize(graph.Edge{U: source, V: v}))
	}
	for _, e := range g.Edges() {
		if len(links) == f {
			break
		}
		if !containsEdge(links, e) {
			links = append(links, e)
		}
	}
	mAdvLinkKills.Add(int64(len(links)))
	return Failures{Links: links}, nil
}

func containsEdge(s []graph.Edge, e graph.Edge) bool {
	e = normalize(e)
	for _, x := range s {
		if normalize(x) == e {
			return true
		}
	}
	return false
}
