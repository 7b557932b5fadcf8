package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"lhg/internal/check"
)

func TestBuildKTreeRejectsInvalidPairs(t *testing.T) {
	tests := []struct {
		name string
		n, k int
	}{
		{name: "k=2 degenerates", n: 10, k: 2},
		{name: "k=0", n: 10, k: 0},
		{name: "n below 2k", n: 7, k: 4},
		{name: "n=k", n: 4, k: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := BuildKTree(tt.n, tt.k)
			if err == nil {
				t.Fatalf("BuildKTree(%d,%d) succeeded, want error", tt.n, tt.k)
			}
			if !errors.Is(err, ErrNotConstructible) {
				t.Fatalf("error %v does not wrap ErrNotConstructible", err)
			}
			var perr *PairError
			if !errors.As(err, &perr) {
				t.Fatalf("error %v is not a PairError", err)
			}
			if perr.N != tt.n || perr.K != tt.k {
				t.Fatalf("PairError carries (%d,%d), want (%d,%d)", perr.N, perr.K, tt.n, tt.k)
			}
		})
	}
}

// TestTheorem2Existence: EX_K-TREE(n,k) = true iff n >= 2k — and the builder
// agrees with the closed form on every pair in the sweep.
func TestTheorem2Existence(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := k + 1; n <= 12*k; n++ {
			want := n >= 2*k
			if got := ExistsKTree(n, k); got != want {
				t.Fatalf("ExistsKTree(%d,%d) = %t, want %t", n, k, got, want)
			}
			kt, err := BuildKTree(n, k)
			if (err == nil) != want {
				t.Fatalf("BuildKTree(%d,%d) err=%v, closed form says %t", n, k, err, want)
			}
			if err != nil {
				continue
			}
			if kt.Real.Graph.Order() != n {
				t.Fatalf("BuildKTree(%d,%d) produced %d nodes", n, k, kt.Real.Graph.Order())
			}
			if err := ValidateKTree(kt.Blue); err != nil {
				t.Fatalf("blueprint for (%d,%d) violates K-TREE: %v", n, k, err)
			}
		}
	}
}

// TestTheorem2GraphsAreLHGs verifies the constructed graphs satisfy all
// four LHG properties (the content of Theorem 1).
func TestTheorem2GraphsAreLHGs(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for n := 2 * k; n <= 8*k; n++ {
			kt, err := BuildKTree(n, k)
			if err != nil {
				t.Fatal(err)
			}
			r, err := check.Verify(context.Background(), kt.Real.Graph, k, check.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.IsLHG() {
				t.Fatalf("K-TREE(%d,%d) is not an LHG: %s", n, k, r)
			}
		}
	}
}

// TestTheorem3Regularity: REG_K-TREE(n,k) iff n = 2k + 2α(k-1), and the
// built graph is k-regular exactly then.
func TestTheorem3Regularity(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := 2 * k; n <= 12*k; n++ {
			want := (n-2*k)%(2*(k-1)) == 0
			if got := RegularKTree(n, k); got != want {
				t.Fatalf("RegularKTree(%d,%d) = %t, want %t", n, k, got, want)
			}
			kt, err := BuildKTree(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := kt.Real.Graph.IsRegular(k); got != want {
				t.Fatalf("K-TREE(%d,%d) regular=%t, Theorem 3 says %t", n, k, got, want)
			}
		}
	}
}

// TestKTreeDegreeRanges checks the degree bounds from the Lemma 2 case
// analysis: every degree lies in [k, 3k-3].
func TestKTreeDegreeRanges(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := 2 * k; n <= 10*k; n += 3 {
			kt, err := BuildKTree(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for v, d := range kt.Real.Graph.Degrees() {
				if d < k || d > 3*k-3 {
					t.Fatalf("K-TREE(%d,%d) node %v has degree %d outside [k, 3k-3] = [%d,%d]",
						n, k, v, d, k, 3*k-3)
				}
			}
		}
	}
}

// TestKTreeEdgeCount: m = k * (tree edges) = k*(L + I - 1); regular
// instances have exactly nk/2 edges, the minimum for k-connectivity.
func TestKTreeEdgeCount(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for n := 2 * k; n <= 10*k; n++ {
			kt, err := BuildKTree(n, k)
			if err != nil {
				t.Fatal(err)
			}
			blue := kt.Blue
			treeEdges := blue.Positions() - 1
			if got := kt.Real.Graph.Size(); got != k*treeEdges {
				t.Fatalf("K-TREE(%d,%d) m=%d, want k*(positions-1)=%d", n, k, got, k*treeEdges)
			}
			if RegularKTree(n, k) && kt.Real.Graph.Size() != n*k/2 {
				t.Fatalf("regular K-TREE(%d,%d) has %d edges, want nk/2=%d",
					n, k, kt.Real.Graph.Size(), n*k/2)
			}
		}
	}
}

func TestKTreeDecompositionFields(t *testing.T) {
	tests := []struct {
		n, k, alpha, j int
	}{
		{n: 6, k: 3, alpha: 0, j: 0},
		{n: 9, k: 3, alpha: 0, j: 3},
		{n: 10, k: 3, alpha: 1, j: 0},
		{n: 21, k: 3, alpha: 3, j: 3},
		{n: 16, k: 4, alpha: 1, j: 2},
	}
	for _, tt := range tests {
		kt, err := BuildKTree(tt.n, tt.k)
		if err != nil {
			t.Fatal(err)
		}
		if kt.Alpha != tt.alpha || kt.J != tt.j {
			t.Fatalf("BuildKTree(%d,%d): α=%d j=%d, want α=%d j=%d",
				tt.n, tt.k, kt.Alpha, kt.J, tt.alpha, tt.j)
		}
	}
}

// TestKTreeSharedLeafDegrees: every shared leaf is adjacent to exactly one
// node in each tree copy (rule 2).
func TestKTreeSharedLeafDegrees(t *testing.T) {
	kt, err := BuildKTree(26, 4)
	if err != nil {
		t.Fatal(err)
	}
	for p, kind := range kt.Blue.Kind {
		if kind != SharedLeaf {
			continue
		}
		leaf := kt.Real.LeafNode[p]
		if got := kt.Real.Graph.Degree(leaf); got != 4 {
			t.Fatalf("shared leaf %d (pos %d) has degree %d, want k=4", leaf, p, got)
		}
	}
}

// TestKTreeLogDiameter asserts the P4 bound over a growing sweep, the
// defining improvement over classic Harary graphs.
func TestKTreeLogDiameter(t *testing.T) {
	k := 3
	for _, n := range []int{6, 14, 30, 62, 126, 254} {
		kt, err := BuildKTree(n, k)
		if err != nil {
			t.Fatal(err)
		}
		diam := kt.Real.Graph.Diameter()
		if bound := check.DiameterBound(n, k); diam > bound {
			t.Fatalf("K-TREE(%d,%d) diameter %d exceeds bound %d", n, k, diam, bound)
		}
	}
}

func TestPropertyKTreeAlwaysVerifies(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		k := int(kRaw%4) + 3    // 3..6
		n := 2*k + int(nRaw)%60 // 2k..2k+59
		kt, err := BuildKTree(n, k)
		if err != nil {
			return false
		}
		if kt.Real.Graph.Order() != n {
			return false
		}
		if ValidateKTree(kt.Blue) != nil {
			return false
		}
		r, err := check.Verify(context.Background(), kt.Real.Graph, k, check.Options{Workers: 1})
		return err == nil && r.IsLHG()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyKTreeDeterministic(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		k := int(kRaw%3) + 3
		n := 2*k + int(nRaw)%40
		a, err := BuildKTree(n, k)
		if err != nil {
			return false
		}
		b, err := BuildKTree(n, k)
		if err != nil {
			return false
		}
		ea, eb := a.Real.Graph.Edges(), b.Real.Graph.Edges()
		if len(ea) != len(eb) {
			return false
		}
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
