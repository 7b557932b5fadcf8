package lhg_test

import (
	"context"
	"errors"
	"testing"

	"lhg"
)

func TestBuildAllConstraints(t *testing.T) {
	tests := []struct {
		c    lhg.Constraint
		n, k int
	}{
		{c: lhg.Harary, n: 12, k: 3},
		{c: lhg.JD, n: 10, k: 3},
		{c: lhg.KTree, n: 11, k: 3},
		{c: lhg.KDiamond, n: 11, k: 3},
	}
	for _, tt := range tests {
		t.Run(tt.c.String(), func(t *testing.T) {
			g, err := lhg.Build(context.Background(), tt.c, tt.n, tt.k)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if g.Order() != tt.n {
				t.Fatalf("Order = %d, want %d", g.Order(), tt.n)
			}
			r, err := lhg.Verify(context.Background(), g, tt.k)
			if err != nil {
				t.Fatal(err)
			}
			if !r.KNodeConnected || !r.KLinkConnected {
				t.Fatalf("%v(%d,%d) not %d-connected: %s", tt.c, tt.n, tt.k, tt.k, r)
			}
		})
	}
}

func TestBuildUnknownConstraint(t *testing.T) {
	if _, err := lhg.Build(context.Background(), lhg.Constraint(99), 10, 3); err == nil {
		t.Fatal("unknown constraint must error")
	}
	if _, _, err := lhg.Labeled(lhg.Constraint(99), 10, 3); err == nil {
		t.Fatal("unknown constraint must error")
	}
}

func TestBuildNotConstructible(t *testing.T) {
	_, err := lhg.Build(context.Background(), lhg.KTree, 5, 3)
	if !errors.Is(err, lhg.ErrNotConstructible) {
		t.Fatalf("err = %v, want ErrNotConstructible", err)
	}
	_, err = lhg.Build(context.Background(), lhg.JD, 9, 3)
	if !errors.Is(err, lhg.ErrNotConstructible) {
		t.Fatalf("err = %v, want ErrNotConstructible", err)
	}
}

func TestLabeled(t *testing.T) {
	g, labels, err := lhg.Labeled(lhg.KDiamond, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != g.Order() {
		t.Fatalf("labels cover %d of %d nodes", len(labels), g.Order())
	}
	// Harary has no tree labels.
	_, labels, err = lhg.Labeled(lhg.Harary, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if labels != nil {
		t.Fatal("Harary labels must be nil")
	}
}

func TestParseConstraint(t *testing.T) {
	for _, c := range lhg.Constraints() {
		got, err := lhg.ParseConstraint(c.String())
		if err != nil {
			t.Fatalf("ParseConstraint(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %v != %v", got, c)
		}
	}
	if _, err := lhg.ParseConstraint("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
	if s := lhg.Constraint(99).String(); s != "constraint(99)" {
		t.Fatalf("String of invalid = %q", s)
	}
}

func TestConstraintsDeterministicAndCopied(t *testing.T) {
	want := []lhg.Constraint{lhg.Harary, lhg.JD, lhg.KTree, lhg.KDiamond}
	got := lhg.Constraints()
	if len(got) != len(want) {
		t.Fatalf("Constraints() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Constraints()[%d] = %v, want %v (presentation order)", i, got[i], want[i])
		}
	}
	// The slice is the caller's to mutate; the package must hand out a copy.
	got[0] = lhg.KDiamond
	if again := lhg.Constraints(); again[0] != lhg.Harary {
		t.Fatal("Constraints() must return a fresh copy each call")
	}
}

func TestExistsMatrix(t *testing.T) {
	tests := []struct {
		c    lhg.Constraint
		n, k int
		want bool
	}{
		{c: lhg.Harary, n: 5, k: 2, want: true},
		{c: lhg.Harary, n: 2, k: 2, want: false},
		{c: lhg.KTree, n: 6, k: 3, want: true},
		{c: lhg.KTree, n: 5, k: 3, want: false},
		{c: lhg.KDiamond, n: 7, k: 3, want: true},
		{c: lhg.JD, n: 9, k: 3, want: false},
		{c: lhg.JD, n: 10, k: 3, want: true},
		{c: lhg.Constraint(99), n: 10, k: 3, want: false},
	}
	for _, tt := range tests {
		if got := lhg.Exists(tt.c, tt.n, tt.k); got != tt.want {
			t.Fatalf("Exists(%v,%d,%d) = %t, want %t", tt.c, tt.n, tt.k, got, tt.want)
		}
	}
}

func TestRegularMatrix(t *testing.T) {
	tests := []struct {
		c    lhg.Constraint
		n, k int
		want bool
	}{
		{c: lhg.Harary, n: 6, k: 3, want: true},
		{c: lhg.Harary, n: 7, k: 3, want: false}, // odd k*n
		{c: lhg.KTree, n: 10, k: 3, want: true},
		{c: lhg.KTree, n: 8, k: 3, want: false},
		{c: lhg.KDiamond, n: 8, k: 3, want: true},
		{c: lhg.JD, n: 10, k: 3, want: true},
		{c: lhg.JD, n: 12, k: 3, want: false},
		{c: lhg.Constraint(99), n: 10, k: 3, want: false},
	}
	for _, tt := range tests {
		if got := lhg.Regular(tt.c, tt.n, tt.k); got != tt.want {
			t.Fatalf("Regular(%v,%d,%d) = %t, want %t", tt.c, tt.n, tt.k, got, tt.want)
		}
	}
}

// TestIsLHGFacade pins IsLHG to the exact verifier: on every row the
// boolean facade answers what Verify(...).IsLHG() answers. K6 at k=3 and
// the Petersen graph at k=2 have κ = λ above k, so P3 must be judged
// against the graph's own κ and λ, not against k.
func TestIsLHGFacade(t *testing.T) {
	ctx := context.Background()
	ktree, err := lhg.Build(ctx, lhg.KTree, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	var k6, petersen, c6, c8chord []lhg.Edge
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			k6 = append(k6, lhg.Edge{U: u, V: v})
		}
	}
	for i := 0; i < 5; i++ {
		petersen = append(petersen,
			lhg.Edge{U: i, V: (i + 1) % 5},     // outer cycle
			lhg.Edge{U: i, V: i + 5},           // spokes
			lhg.Edge{U: 5 + i, V: 5 + (i+2)%5}) // inner pentagram
	}
	for i := 0; i < 6; i++ {
		c6 = append(c6, lhg.Edge{U: i, V: (i + 1) % 6})
	}
	for i := 0; i < 8; i++ {
		c8chord = append(c8chord, lhg.Edge{U: i, V: (i + 1) % 8})
	}
	c8chord = append(c8chord, lhg.Edge{U: 0, V: 4})
	graphOf := func(n int, edges []lhg.Edge) *lhg.Graph {
		t.Helper()
		g, err := lhg.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	tests := []struct {
		name string
		g    *lhg.Graph
		k    int
		want bool
	}{
		{"ktree_12_k3", ktree, 3, true},
		{"K6_k3", graphOf(6, k6), 3, true},
		{"K6_k5", graphOf(6, k6), 5, true},
		{"petersen_k2", graphOf(10, petersen), 2, true},
		{"petersen_k3", graphOf(10, petersen), 3, true},
		{"C6_k3", graphOf(6, c6), 3, false},
		{"C8_with_chord_k2", graphOf(8, c8chord), 2, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := lhg.Verify(ctx, tt.g, tt.k)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := lhg.IsLHG(ctx, tt.g, tt.k)
			if err != nil {
				t.Fatal(err)
			}
			if ok != r.IsLHG() || ok != tt.want {
				t.Fatalf("IsLHG = %t, Verify.IsLHG = %t, want %t (%s)", ok, r.IsLHG(), tt.want, r)
			}
		})
	}
}

// TestIsLHGErrors: IsLHG rejects a target k outside [1, n) as Verify does.
func TestIsLHGErrors(t *testing.T) {
	g, err := lhg.Build(context.Background(), lhg.Harary, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 4} {
		if _, err := lhg.IsLHG(context.Background(), g, k); err == nil {
			t.Fatalf("k=%d must error", k)
		}
	}
}

func TestFloodFacadeSurvivesFailures(t *testing.T) {
	g, err := lhg.Build(context.Background(), lhg.KDiamond, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lhg.Flood(context.Background(), g, 0, lhg.WithFailures(lhg.Failures{Nodes: []int{2, 5, 9}}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("4-connected flood with 3 failures incomplete: %s", res)
	}
}

func TestFloodBudgetFacade(t *testing.T) {
	g, err := lhg.Build(context.Background(), lhg.KDiamond, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	report, err := lhg.FloodBudget(context.Background(), g, 0, 4, lhg.DefaultRetryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if report.MinDiversity < 4 {
		t.Fatalf("diversity %d below the design connectivity", report.MinDiversity)
	}
	if want := 2 * int64(g.Size()) * 13; report.FrameCeiling != want {
		t.Fatalf("frame ceiling %d, want 2m(1+R) = %d", report.FrameCeiling, want)
	}
	guard := report.Guard()
	if guard.HopBudget <= 0 || guard.RetryBudget != 12 || guard.RetransmitRate <= 0 {
		t.Fatalf("guard plan not derived: %+v", guard)
	}
}

// TestEndToEndAllConstraintsAgree is the integration pass: for a grid of
// pairs, whenever two constructions both exist they are both verified LHGs
// and both flood completely under k-1 adversarial-ish failures.
func TestEndToEndAllConstraintsAgree(t *testing.T) {
	k := 3
	for n := 2 * k; n <= 30; n++ {
		for _, c := range []lhg.Constraint{lhg.JD, lhg.KTree, lhg.KDiamond} {
			if !lhg.Exists(c, n, k) {
				continue
			}
			g, err := lhg.Build(context.Background(), c, n, k)
			if err != nil {
				t.Fatalf("Build(%v,%d,%d): %v", c, n, k, err)
			}
			ok, err := lhg.IsLHG(context.Background(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%v(%d,%d) is not an LHG", c, n, k)
			}
			res, err := lhg.Flood(context.Background(), g, n-1, lhg.WithFailures(lhg.Failures{Nodes: []int{0, 1}}))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete {
				t.Fatalf("%v(%d,%d) flood incomplete with 2 failures", c, n, k)
			}
		}
	}
}

func TestBuildRouted(t *testing.T) {
	for _, c := range []lhg.Constraint{lhg.KTree, lhg.KDiamond} {
		g, router, err := lhg.BuildRouted(c, 26, 3)
		if err != nil {
			t.Fatal(err)
		}
		path, err := router.Route(0, g.Order()-1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(path); i++ {
			if !g.HasEdge(path[i], path[i+1]) {
				t.Fatalf("%v route uses missing edge", c)
			}
		}
		if len(path)-1 > router.MaxRouteLength() {
			t.Fatalf("%v route too long", c)
		}
	}
	if _, _, err := lhg.BuildRouted(lhg.Harary, 26, 3); err == nil {
		t.Fatal("harary must have no router")
	}
}

func TestNewOverlayFacade(t *testing.T) {
	o, err := lhg.NewOverlay(lhg.KDiamond, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Join(); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 9 {
		t.Fatalf("Size = %d, want 9", o.Size())
	}
	if _, err := lhg.NewOverlay(lhg.KTree, 3, 5); err == nil {
		t.Fatal("n < 2k must fail")
	}
}

func TestNewMembershipFacade(t *testing.T) {
	s, err := lhg.NewMembership(lhg.KTree, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(4, 7); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.View.Size != 8 || !s.ConsistentViews() {
		t.Fatalf("repair: %+v consistent=%t", rep.View, s.ConsistentViews())
	}
}

func TestBuildVariantFacade(t *testing.T) {
	g, err := lhg.Build(context.Background(), lhg.KDiamond, 20, 3, lhg.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := lhg.IsLHG(context.Background(), g, 3)
	if err != nil || !ok {
		t.Fatalf("variant not an LHG: %v", err)
	}
	if _, err := lhg.Build(context.Background(), lhg.Harary, 20, 3, lhg.WithSeed(5)); err == nil {
		t.Fatal("harary has no variant builder")
	}
}
