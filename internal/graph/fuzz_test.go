package graph

import (
	"context"
	"encoding/json"
	"testing"
)

// FuzzGraphOps replays an arbitrary byte string as a sequence of builder
// mutations and asserts the structural invariants of the frozen view after
// every operation: the handshake identity, sorted adjacency, and symmetric
// edges. It also cross-checks the lane-kernel distance sweep against the
// scalar reference BFS, serial and fanned out.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte("add remove add"))
	f.Add([]byte{0xff, 0x00, 0x7f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			t.Skip("cap the op sequence")
		}
		b := NewBuilder(8)
		for i := 0; i+2 < len(ops); i += 3 {
			op, u, v := ops[i]%3, int(ops[i+1]), int(ops[i+2])
			switch op {
			case 0:
				// AddEdge may fail for invalid input; it must not corrupt.
				_ = b.AddEdge(u%12-2, v%12-2)
			case 1:
				b.RemoveEdge(u%12-2, v%12-2)
			case 2:
				b.AddNode()
			}
			g := b.Freeze()
			if g.Order() != b.Order() || g.Size() != b.Size() {
				t.Fatalf("freeze shape (n=%d,m=%d) disagrees with builder (n=%d,m=%d)",
					g.Order(), g.Size(), b.Order(), b.Size())
			}
			assertInvariants(t, g)
			wantDiam, wantAvg := refDistanceStats(g)
			for _, workers := range []int{1, 2} {
				diam, avg, err := g.DistanceStatsCtx(context.Background(), workers)
				if err != nil || diam != wantDiam || avg != wantAvg {
					t.Fatalf("workers=%d: DistanceStatsCtx = (%d, %v, %v), reference (%d, %v)",
						workers, diam, avg, err, wantDiam, wantAvg)
				}
			}
		}
	})
}

func assertInvariants(t *testing.T, g *Graph) {
	t.Helper()
	sum := 0
	for v := 0; v < g.Order(); v++ {
		nbrs := g.Neighbors(v)
		sum += len(nbrs)
		for i := 0; i < len(nbrs); i++ {
			if nbrs[i] == v {
				t.Fatal("self loop stored")
			}
			if i > 0 && nbrs[i-1] >= nbrs[i] {
				t.Fatalf("adjacency of %d not strictly sorted: %v", v, nbrs)
			}
			if !g.HasEdge(nbrs[i], v) {
				t.Fatalf("edge (%d,%d) not symmetric", v, nbrs[i])
			}
		}
	}
	if sum != 2*g.Size() {
		t.Fatalf("handshake violated: degree sum %d, 2m=%d", sum, 2*g.Size())
	}
}

// FuzzJSONDecode throws arbitrary bytes at the graph decoder: it must
// either reject the input or produce a graph satisfying the invariants,
// and any accepted graph must re-encode and re-decode to the same shape.
func FuzzJSONDecode(f *testing.F) {
	f.Add([]byte(`{"nodes":3,"edges":[[0,1]]}`))
	f.Add([]byte(`{"nodes":-1,"edges":[]}`))
	f.Add([]byte(`{"nodes":2,"edges":[[0,0]]}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return // rejected: fine
		}
		assertInvariants(t, &g)
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var back Graph
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if back.Order() != g.Order() || back.Size() != g.Size() {
			t.Fatalf("round trip changed shape: %s -> %s", g.String(), back.String())
		}
	})
}
