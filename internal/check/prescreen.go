package check

import (
	"math/bits"

	"lhg/internal/flow"
	"lhg/internal/graph"
	"lhg/internal/obs"
)

// Monte Carlo cut prescreen: seeded Karger random-contraction rounds run
// before the exact κ/λ sweeps. Each round contracts random edges until two
// super-nodes remain; the edges crossing the final bipartition are a REAL
// edge cut of the graph, so its size is a certified upper bound U ≥ λ(G).
// The prescreen feeds the exact sweeps two things, neither of which can
// change a result:
//
//   - U is folded into the λ running minimum (λ ≤ U by construction, so
//     min(δ, U, probes) = λ exactly — see flow.SweepHints), tightening the
//     early-exit limit of every probe from the first one on;
//   - the small side of the best cut found is the "critical" node set —
//     the nodes most likely to sit on the small side of a true minimum
//     cut — and probes touching them are scheduled first, so the shared
//     minimum drops as early as possible and the remaining probes
//     early-exit at the lower limit.
//
// A graph whose rounds never beat the trivial star cut δ produces no
// critical nodes and U = δ: the hints degenerate to the historical sweep.
// That routing rate — how many nodes get flagged for confirmation-first
// probing — is pinned by TestPrescreenRoutingRate under the fixed seed.
var (
	mPrescreenRuns     = obs.NewCounter("check.prescreen.runs")
	mPrescreenRounds   = obs.NewCounter("check.prescreen.rounds")
	mPrescreenImproved = obs.NewCounter("check.prescreen.improved")
	mPrescreenCritical = obs.NewCounter("check.prescreen.critical_nodes")
	tPhasePrescreen    = obs.NewTimer("check.phase.prescreen")
)

// PrescreenCutoff is the node-count threshold of the automatic prescreen:
// below it a contraction round costs more bookkeeping than the probe it
// might early-exit, so small graphs keep the historical path (the
// differential fuzz target forces PrescreenAlways to cover them anyway).
const PrescreenCutoff = 512

// prescreenSeed fixes the Karger RNG stream: the prescreen must be a pure
// function of the graph so reports and goldens are reproducible run to run.
const prescreenSeed = 0x6c68672d70726573 // "lhg-pres"

// prescreenEligible is the prescreen policy gate, the counterpart of the
// density gate in sparseProbeView.
func prescreenEligible(g *graph.Graph, policy Prescreen) bool {
	if policy == PrescreenOff {
		return false
	}
	if g.Order() < 4 || g.Size() == 0 {
		return false
	}
	return policy == PrescreenAlways || g.Order() >= PrescreenCutoff
}

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
// many rounds to *guarantee* hitting a minimum cut, but the prescreen only
// has to find a good cut often enough to pay for itself, so a logarithmic
// budget keeps the whole pass at O(m log n).
func prescreenRounds(n int) int {
	return 2 * bits.Len(uint(n))
}

// prescreenHints runs the seeded contraction rounds on g and returns the
// sweep hints. Deterministic for a fixed graph.
func prescreenHints(g *graph.Graph) flow.SweepHints {
	n := g.Order()
	edges := g.Edges()
	mPrescreenRuns.Inc()
	minDeg, _ := g.MinDegree()
	best := minDeg // the star of a minimum-degree node is always a real cut
	var critical []int
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
		if cut >= best {
			continue
		}
		best = cut
		// The smaller side of the bipartition is the critical set. With
		// more than two super-nodes left (disconnected graph) the split is
		// "node 0's component vs the rest", still a real 0-cut.
		r0 := uf.Find(0)
		side := make([]int, 0, n/2)
		for v := 0; v < n; v++ {
			if uf.Find(v) == r0 {
				side = append(side, v)
			}
		}
		if len(side) > n-len(side) {
			inv := make([]int, 0, n-len(side))
			for v := 0; v < n; v++ {
				if uf.Find(v) != r0 {
					inv = append(inv, v)
				}
			}
			side = inv
		}
		critical = side
	}
	if best < minDeg {
		mPrescreenImproved.Inc()
		mPrescreenCritical.Add(int64(len(critical)))
	}
	return flow.SweepHints{Upper: best, Critical: critical}
}
