package check

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"lhg/internal/graph"
)

// Independent ground truth for κ and λ on small graphs, sharing no code
// with either verification pipeline: κ by exhaustive vertex-subset
// removal over an adjacency matrix, λ by a Stoer–Wagner global min-cut
// (maximum-adjacency search with contraction — no max-flow). Verify,
// serial and parallel, and Screen are asserted against these oracles.

// oracleConnected reports connectivity of the matrix graph with the
// vertices in mask removed.
func oracleConnected(n int, adj [][]bool, mask int) bool {
	start := -1
	alive := 0
	for v := 0; v < n; v++ {
		if mask&(1<<v) == 0 {
			alive++
			if start < 0 {
				start = v
			}
		}
	}
	if alive <= 1 {
		return true
	}
	seen := make([]bool, n)
	seen[start] = true
	queue := []int{start}
	reached := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < n; v++ {
			if adj[u][v] && mask&(1<<v) == 0 && !seen[v] {
				seen[v] = true
				reached++
				queue = append(queue, v)
			}
		}
	}
	return reached == alive
}

// oracleKappa is κ by definition: the smallest vertex subset whose
// removal disconnects the graph (n-1 for complete graphs, 0 when already
// disconnected).
func oracleKappa(n int, adj [][]bool) int {
	if n < 2 || !oracleConnected(n, adj, 0) {
		return 0
	}
	best := n - 1
	for mask := 1; mask < 1<<n; mask++ {
		size := bits.OnesCount(uint(mask))
		if size >= best || size > n-2 {
			continue
		}
		if !oracleConnected(n, adj, mask) {
			best = size
		}
	}
	return best
}

// stoerWagner computes the global minimum edge cut of the weighted matrix
// graph by repeated maximum-adjacency phases with s-t contraction. With
// unit weights the result is λ (0 when disconnected).
func stoerWagner(adj [][]int) int {
	n := len(adj)
	if n < 2 {
		return 0
	}
	w := make([][]int, n)
	for i := range w {
		w[i] = append([]int(nil), adj[i]...)
	}
	exist := make([]bool, n)
	for i := range exist {
		exist[i] = true
	}
	best := math.MaxInt
	for remaining := n; remaining > 1; remaining-- {
		inA := make([]bool, n)
		wt := make([]int, n)
		s, t := -1, -1
		for i := 0; i < remaining; i++ {
			sel := -1
			for v := 0; v < n; v++ {
				if exist[v] && !inA[v] && (sel == -1 || wt[v] > wt[sel]) {
					sel = v
				}
			}
			inA[sel] = true
			for v := 0; v < n; v++ {
				if exist[v] && !inA[v] {
					wt[v] += w[sel][v]
				}
			}
			s, t = t, sel
		}
		if wt[t] < best {
			best = wt[t] // cut of the phase: t against the rest
		}
		for v := 0; v < n; v++ { // contract t into s
			w[s][v] += w[t][v]
			w[v][s] = w[s][v]
		}
		exist[t] = false
	}
	return best
}

// oracleGraph draws a random matrix graph and its CSR twin.
func oracleGraph(rng *rand.Rand, n, percent int) (*graph.Graph, [][]bool, [][]int) {
	adj := make([][]bool, n)
	wts := make([][]int, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		wts[i] = make([]int, n)
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(100) < percent {
				b.MustAddEdge(u, v)
				adj[u][v], adj[v][u] = true, true
				wts[u][v], wts[v][u] = 1, 1
			}
		}
	}
	return b.Freeze(), adj, wts
}

func TestVerifyAgainstOracles(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7)         // 4..10
		percent := 15 + rng.Intn(85) // sparse through complete
		g, adj, wts := oracleGraph(rng, n, percent)
		wantKappa := oracleKappa(n, adj)
		wantLambda := stoerWagner(wts)
		if !g.Connected() {
			wantLambda = 0 // λ is 0 by definition when disconnected
		}
		for _, opt := range []Options{{Workers: 1}, {Workers: 2}, {Workers: 3}, {Workers: 4}} {
			r, err := Verify(ctx, g, 1, opt)
			if err != nil {
				t.Fatal(err)
			}
			if r.NodeConnectivity != wantKappa {
				t.Fatalf("seed=%d n=%d p=%d %+v: κ=%d, oracle %d",
					seed, n, percent, opt, r.NodeConnectivity, wantKappa)
			}
			if r.EdgeConnectivity != wantLambda {
				t.Fatalf("seed=%d n=%d p=%d %+v: λ=%d, oracle %d",
					seed, n, percent, opt, r.EdgeConnectivity, wantLambda)
			}
		}
		sr, err := Screen(ctx, g, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sr.NodeConnectivity != wantKappa || sr.EdgeConnectivity != wantLambda {
			t.Fatalf("seed=%d n=%d p=%d: Screen κ=%d λ=%d, oracle %d %d",
				seed, n, percent, sr.NodeConnectivity, sr.EdgeConnectivity, wantKappa, wantLambda)
		}
	}
}

// TestOracleLambdaSingleLinkIdentity cross-checks the Stoer–Wagner oracle
// against the single-link-removal definition of λ: for a connected graph,
// λ(g) = 1 + min over edges e of λ(g − e), since some edge lies in a
// minimum cut and no single removal can drop the cut by more than one.
func TestOracleLambdaSingleLinkIdentity(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5) // 4..8
		g, _, wts := oracleGraph(rng, n, 40+rng.Intn(50))
		if !g.Connected() {
			continue
		}
		lambda := stoerWagner(wts)
		minWithout := math.MaxInt
		for _, e := range g.Edges() {
			wts[e.U][e.V], wts[e.V][e.U] = 0, 0
			sub := stoerWagner(wts)
			if !g.WithoutEdge(e.U, e.V).Connected() {
				sub = 0
			}
			wts[e.U][e.V], wts[e.V][e.U] = 1, 1
			if sub < minWithout {
				minWithout = sub
			}
		}
		if lambda != 1+minWithout {
			t.Fatalf("seed=%d: λ=%d but 1+min_e λ(g−e)=%d", seed, lambda, 1+minWithout)
		}
	}
}
