package check

import (
	"context"
	"strings"
	"testing"

	"lhg/internal/graph"
	"lhg/internal/harary"
)

func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.MustAddEdge(v, (v+1)%n)
	}
	return b.Freeze()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.Freeze()
}

// petersen returns the Petersen graph: 3-regular, 3-connected, diameter 2.
func petersen() *graph.Graph {
	b := graph.NewBuilder(10)
	for v := 0; v < 5; v++ {
		b.MustAddEdge(v, (v+1)%5)     // outer cycle
		b.MustAddEdge(5+v, 5+(v+2)%5) // inner pentagram
		b.MustAddEdge(v, 5+v)         // spokes
	}
	return b.Freeze()
}

func mustHarary(t *testing.T, n, k int) *graph.Graph {
	t.Helper()
	h, err := harary.Build(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// randomGraph returns a G(n, 1/2) graph drawn from a xorshift stream
// seeded by seed.
func randomGraph(n int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next()%2 == 0 {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Freeze()
}

func TestVerifyArgumentErrors(t *testing.T) {
	g := cycle(5)
	if _, err := Verify(context.Background(), g, 0, Options{Workers: 1}); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := Verify(context.Background(), g, 5, Options{Workers: 1}); err == nil {
		t.Fatal("k=n must be rejected")
	}
}

func TestVerifyPetersen(t *testing.T) {
	r, err := Verify(context.Background(), petersen(), 3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeConnectivity != 3 || r.EdgeConnectivity != 3 {
		t.Fatalf("Petersen κ=%d λ=%d, want 3/3", r.NodeConnectivity, r.EdgeConnectivity)
	}
	if !r.KNodeConnected || !r.KLinkConnected || !r.LinkMinimal || !r.LogDiameter {
		t.Fatalf("Petersen should be an LHG witness: %s", r)
	}
	if !r.Regular {
		t.Fatal("Petersen is 3-regular")
	}
	if r.Diameter != 2 {
		t.Fatalf("Petersen diameter = %d, want 2", r.Diameter)
	}
	if !r.IsLHG() {
		t.Fatal("IsLHG must be true")
	}
}

func TestVerifyCycleFailsP4(t *testing.T) {
	// A long cycle is 2-connected and link-minimal but has linear diameter.
	// (k=2 keeps the diameter bound vacuous by design, so use a cycle with
	// a tighter k... instead verify with k=2 that the other properties
	// hold and the diameter value is reported faithfully.)
	g := cycle(30)
	r, err := Verify(context.Background(), g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.KNodeConnected || !r.KLinkConnected || !r.LinkMinimal {
		t.Fatalf("C30: %s", r)
	}
	if r.Diameter != 15 {
		t.Fatalf("C30 diameter = %d, want 15", r.Diameter)
	}
}

func TestVerifyDetectsNonMinimalGraph(t *testing.T) {
	// A cycle plus one chord: still κ=λ=2 but the chord is removable.
	r, err := Verify(context.Background(), chorded(), 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkMinimal {
		t.Fatalf("chorded cycle must fail P3: %s", r)
	}
	e, ok := r.Violation()
	if !ok {
		t.Fatal("violation edge must be recorded")
	}
	// The only removable edge is the chord.
	if (e != graph.Edge{U: 0, V: 4}) {
		t.Fatalf("violating edge = %v, want {0 4}", e)
	}
	if r.IsLHG() {
		t.Fatal("IsLHG must be false when P3 fails")
	}
}

func TestVerifyUnderConnected(t *testing.T) {
	g := cycle(6) // κ=2 < 3
	r, err := Verify(context.Background(), g, 3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.KNodeConnected || r.KLinkConnected {
		t.Fatalf("C6 is not 3-connected: %s", r)
	}
	if r.IsLHG() {
		t.Fatal("IsLHG must be false")
	}
}

func TestVerifyDisconnected(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}})
	r, err := Verify(context.Background(), g, 1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.KNodeConnected || r.LinkMinimal || r.LogDiameter {
		t.Fatalf("disconnected graph must fail everything: %s", r)
	}
	if r.Diameter != -1 {
		t.Fatalf("Diameter = %d, want -1", r.Diameter)
	}
}

func TestVerifyCompleteGraph(t *testing.T) {
	// K5 for k=4: κ=λ=4, regular, minimal, diameter 1.
	r, err := Verify(context.Background(), complete(5), 4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsLHG() || !r.Regular {
		t.Fatalf("K5: %s", r)
	}
}

func TestDiameterBound(t *testing.T) {
	tests := []struct {
		n, k int
		want int
	}{
		{n: 10, k: 3, want: 2*4 + DiameterSlack},  // log2(10) -> ceil 4
		{n: 16, k: 3, want: 2*4 + DiameterSlack},  // log2(16) = 4
		{n: 100, k: 4, want: 2*5 + DiameterSlack}, // log3(100) -> ceil 5
		{n: 50, k: 2, want: 50},                   // degenerate base
		{n: 1, k: 5, want: 1},                     // n < 2
	}
	for _, tt := range tests {
		if got := DiameterBound(tt.n, tt.k); got != tt.want {
			t.Fatalf("DiameterBound(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func chorded() *graph.Graph {
	b := cycle(8).Thaw()
	b.MustAddEdge(0, 4)
	return b.Freeze()
}

func TestReportString(t *testing.T) {
	r, err := Verify(context.Background(), petersen(), 3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"n=10", "m=15", "κ=3", "λ=3", "regular=true"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Report.String() = %q missing %q", s, want)
		}
	}
}

func TestVerifyReportsAvgPathLength(t *testing.T) {
	r, err := Verify(context.Background(), complete(4), 3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgPathLen != 1.0 {
		t.Fatalf("AvgPathLen(K4) = %v, want 1", r.AvgPathLen)
	}
}

func TestMooreDiameterLowerBound(t *testing.T) {
	tests := []struct {
		n, k, want int
	}{
		{n: 1, k: 3, want: 0},
		{n: 4, k: 3, want: 1},  // K4
		{n: 10, k: 3, want: 2}, // Petersen meets the Moore bound
		{n: 11, k: 3, want: 3},
		{n: 22, k: 3, want: 3},
		{n: 23, k: 3, want: 4},
		{n: 5, k: 1, want: 4},
		{n: 9, k: 2, want: 4}, // C9
	}
	for _, tt := range tests {
		if got := MooreDiameterLowerBound(tt.n, tt.k); got != tt.want {
			t.Fatalf("Moore(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
	// The Petersen graph attains it.
	if petersen().Diameter() != MooreDiameterLowerBound(10, 3) {
		t.Fatal("Petersen must meet the Moore bound")
	}
}
