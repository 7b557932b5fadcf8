package check

import (
	"math/bits"

	"lhg/internal/graph"
	"lhg/internal/obs"
)

// Monte Carlo cut prescreen of Screen: seeded Karger random-contraction
// rounds. Each round contracts random edges until two super-nodes remain;
// the edges crossing the final bipartition are a REAL edge cut of the
// graph, so its size is a certified upper bound U ≥ λ(G), and U < k is an
// exact P2 refutation. Exact verification does not run it: when λ = δ no
// round can beat the star cut, so U would only restate δ.
var (
	mPrescreenRuns     = obs.NewCounter("check.prescreen.runs")
	mPrescreenRounds   = obs.NewCounter("check.prescreen.rounds")
	mPrescreenImproved = obs.NewCounter("check.prescreen.improved")
)

// prescreenSeed fixes the Karger RNG stream: the prescreen must be a pure
// function of the graph so screen reports are reproducible run to run.
const prescreenSeed = 0x6c68672d70726573 // "lhg-pres"

// splitmix64 advances the seed and returns the next value of the splitmix64
// stream — the same generator the fuzz harness uses, chosen for statelessness.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// prescreenRounds is the round budget for a graph of n nodes: Karger needs
// many rounds to *guarantee* hitting a minimum cut, but a screen only
// looks for a refuting cut, so a logarithmic budget keeps the whole pass at
// O(m log n).
func prescreenRounds(n int) int {
	return 2 * bits.Len(uint(n))
}

// contractionCut runs the seeded contraction rounds on g and returns the
// smallest cut they found, or δ when none beats the star of a
// minimum-degree node. Deterministic for a fixed graph.
func contractionCut(g *graph.Graph) int {
	n := g.Order()
	edges := g.Edges()
	mPrescreenRuns.Inc()
	minDeg, _ := g.MinDegree()
	best := minDeg // the star of a minimum-degree node is always a real cut
	uf := graph.NewUnionFind(n)
	perm := make([]int32, len(edges))
	for i := range perm {
		perm[i] = int32(i)
	}
	rng := prescreenSeed ^ uint64(n)<<32 ^ uint64(len(edges))
	rounds := prescreenRounds(n)
	for round := 0; round < rounds; round++ {
		mPrescreenRounds.Inc()
		uf.Reset()
		// Contract edges in a fresh Fisher–Yates order until two
		// super-nodes remain (or edges run out — then g is disconnected
		// and the crossing count below is 0, the exact λ).
		for i := len(perm) - 1; i > 0; i-- {
			j := int(splitmix64(&rng) % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		remaining := n
		for _, ei := range perm {
			if uf.Union(edges[ei].U, edges[ei].V) {
				remaining--
				if remaining == 2 {
					break
				}
			}
		}
		cut := 0
		for _, e := range edges {
			if uf.Find(e.U) != uf.Find(e.V) {
				cut++
			}
		}
		best = min(best, cut)
	}
	if best < minDeg {
		mPrescreenImproved.Inc()
	}
	return best
}
