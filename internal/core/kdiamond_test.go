package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"lhg/internal/check"
)

func TestBuildKDiamondRejectsInvalidPairs(t *testing.T) {
	for _, tt := range []struct{ n, k int }{
		{n: 10, k: 2},
		{n: 5, k: 3},
		{n: 0, k: 3},
	} {
		if _, err := BuildKDiamond(tt.n, tt.k); !errors.Is(err, ErrNotConstructible) {
			t.Fatalf("BuildKDiamond(%d,%d) err=%v, want ErrNotConstructible", tt.n, tt.k, err)
		}
	}
}

// TestTheorem5Existence: EX_K-DIAMOND(n,k) iff n >= 2k, and the builder
// agrees on every pair in the sweep.
func TestTheorem5Existence(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := k + 1; n <= 12*k; n++ {
			want := n >= 2*k
			if got := ExistsKDiamond(n, k); got != want {
				t.Fatalf("ExistsKDiamond(%d,%d) = %t, want %t", n, k, got, want)
			}
			kd, err := BuildKDiamond(n, k)
			if (err == nil) != want {
				t.Fatalf("BuildKDiamond(%d,%d) err=%v, closed form says %t", n, k, err, want)
			}
			if err != nil {
				continue
			}
			if kd.Real.Graph.Order() != n {
				t.Fatalf("BuildKDiamond(%d,%d) produced %d nodes", n, k, kd.Real.Graph.Order())
			}
			if err := ValidateKDiamond(kd.Blue); err != nil {
				t.Fatalf("blueprint for (%d,%d) violates K-DIAMOND: %v", n, k, err)
			}
		}
	}
}

// TestCorollary1Equivalence: EX_K-TREE(n,k) ⇔ EX_K-DIAMOND(n,k).
func TestCorollary1Equivalence(t *testing.T) {
	for k := 3; k <= 8; k++ {
		for n := 1; n <= 15*k; n++ {
			if ExistsKTree(n, k) != ExistsKDiamond(n, k) {
				t.Fatalf("EX functions disagree at (%d,%d)", n, k)
			}
		}
	}
}

// TestTheorem5GraphsAreLHGs: the constructed K-DIAMOND graphs satisfy all
// four LHG properties (the content of Theorem 4).
func TestTheorem5GraphsAreLHGs(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for n := 2 * k; n <= 8*k; n++ {
			kd, err := BuildKDiamond(n, k)
			if err != nil {
				t.Fatal(err)
			}
			r, err := check.Verify(context.Background(), kd.Real.Graph, k, check.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.IsLHG() {
				t.Fatalf("K-DIAMOND(%d,%d) is not an LHG: %s", n, k, r)
			}
		}
	}
}

// TestTheorem6Regularity: REG_K-DIAMOND(n,k) iff n = 2k + α(k-1), and the
// built graph is k-regular exactly then.
func TestTheorem6Regularity(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := 2 * k; n <= 12*k; n++ {
			want := (n-2*k)%(k-1) == 0
			if got := RegularKDiamond(n, k); got != want {
				t.Fatalf("RegularKDiamond(%d,%d) = %t, want %t", n, k, got, want)
			}
			kd, err := BuildKDiamond(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := kd.Real.Graph.IsRegular(k); got != want {
				t.Fatalf("K-DIAMOND(%d,%d) regular=%t, Theorem 6 says %t", n, k, got, want)
			}
		}
	}
}

// TestCorollary2Implication: REG_K-TREE(n,k) ⇒ REG_K-DIAMOND(n,k).
func TestCorollary2Implication(t *testing.T) {
	for k := 3; k <= 8; k++ {
		for n := 2 * k; n <= 20*k; n++ {
			if RegularKTree(n, k) && !RegularKDiamond(n, k) {
				t.Fatalf("REG_K-TREE true but REG_K-DIAMOND false at (%d,%d)", n, k)
			}
		}
	}
}

// TestTheorem7OddAlphaPairs: for every odd α, n = 2k + α(k-1) is k-regular
// under K-DIAMOND but NOT under K-TREE — the infinite family of Theorem 7 —
// and the built graphs witness it.
func TestTheorem7OddAlphaPairs(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for alpha := 1; alpha <= 9; alpha += 2 {
			n := 2*k + alpha*(k-1)
			if !RegularKDiamond(n, k) {
				t.Fatalf("REG_K-DIAMOND(%d,%d) = false, want true (odd α=%d)", n, k, alpha)
			}
			if RegularKTree(n, k) {
				t.Fatalf("REG_K-TREE(%d,%d) = true, want false (odd α=%d)", n, k, alpha)
			}
			kd, err := BuildKDiamond(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if !kd.Real.Graph.IsRegular(k) {
				t.Fatalf("K-DIAMOND(%d,%d) witness is not k-regular", n, k)
			}
			kt, err := BuildKTree(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if kt.Real.Graph.IsRegular(k) {
				t.Fatalf("K-TREE(%d,%d) is unexpectedly regular", n, k)
			}
		}
	}
}

// TestKDiamondRegularDensity: in any window, K-DIAMOND admits about twice
// as many k-regular sizes as K-TREE (the practical payoff of Theorem 7).
func TestKDiamondRegularDensity(t *testing.T) {
	k := 4
	lo, hi := 2*k, 2*k+40*(k-1)
	ktreeCount, kdiamondCount := 0, 0
	for n := lo; n <= hi; n++ {
		if RegularKTree(n, k) {
			ktreeCount++
		}
		if RegularKDiamond(n, k) {
			kdiamondCount++
		}
	}
	if kdiamondCount != 2*ktreeCount-1 { // off by one from window alignment
		t.Fatalf("regular density: ktree=%d kdiamond=%d, want kdiamond = 2*ktree-1",
			ktreeCount, kdiamondCount)
	}
}

func TestKDiamondDecompositionFields(t *testing.T) {
	tests := []struct {
		n, k, alpha, j, unshared int
	}{
		{n: 6, k: 3, alpha: 0, j: 0, unshared: 0},
		{n: 7, k: 3, alpha: 0, j: 1, unshared: 0},
		{n: 8, k: 3, alpha: 1, j: 0, unshared: 1},
		{n: 13, k: 3, alpha: 3, j: 1, unshared: 1},
		{n: 14, k: 3, alpha: 4, j: 0, unshared: 0},
	}
	for _, tt := range tests {
		kd, err := BuildKDiamond(tt.n, tt.k)
		if err != nil {
			t.Fatal(err)
		}
		if kd.Alpha != tt.alpha || kd.J != tt.j || kd.Unshared != tt.unshared {
			t.Fatalf("BuildKDiamond(%d,%d): α=%d j=%d u=%d, want α=%d j=%d u=%d",
				tt.n, tt.k, kd.Alpha, kd.J, kd.Unshared, tt.alpha, tt.j, tt.unshared)
		}
	}
}

// TestKDiamondUnsharedCliqueStructure: clique members form K_k minus
// nothing, each with exactly one tree edge (rules 4a/4b).
func TestKDiamondUnsharedCliqueStructure(t *testing.T) {
	kd, err := BuildKDiamond(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for p, kind := range kd.Blue.Kind {
		if kind != UnsharedLeaf {
			continue
		}
		found = true
		members := kd.Real.GroupNode[p]
		if len(members) != 3 {
			t.Fatalf("unshared group has %d members, want k=3", len(members))
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if !kd.Real.Graph.HasEdge(members[i], members[j]) {
					t.Fatalf("clique edge (%d,%d) missing", members[i], members[j])
				}
			}
			// Degree k: k-1 clique edges + exactly 1 tree edge.
			if d := kd.Real.Graph.Degree(members[i]); d != 3 {
				t.Fatalf("clique member %d has degree %d, want 3", members[i], d)
			}
		}
	}
	if !found {
		t.Fatal("K-DIAMOND(8,3) must contain an unshared leaf")
	}
}

// TestKDiamondDegreeRanges: Lemma 6 case analysis bounds degrees by
// [k, 2k-2] for the K-DIAMOND family.
func TestKDiamondDegreeRanges(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := 2 * k; n <= 10*k; n += 3 {
			kd, err := BuildKDiamond(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for v, d := range kd.Real.Graph.Degrees() {
				if d < k || d > 2*k-2 {
					t.Fatalf("K-DIAMOND(%d,%d) node %v degree %d outside [k, 2k-2]", n, k, v, d)
				}
			}
		}
	}
}

func TestKDiamondLogDiameter(t *testing.T) {
	k := 4
	for _, n := range []int{8, 20, 41, 83, 170, 341} {
		kd, err := BuildKDiamond(n, k)
		if err != nil {
			t.Fatal(err)
		}
		diam := kd.Real.Graph.Diameter()
		if bound := check.DiameterBound(n, k); diam > bound {
			t.Fatalf("K-DIAMOND(%d,%d) diameter %d exceeds bound %d", n, k, diam, bound)
		}
	}
}

func TestPropertyKDiamondAlwaysVerifies(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		k := int(kRaw%4) + 3
		n := 2*k + int(nRaw)%60
		kd, err := BuildKDiamond(n, k)
		if err != nil {
			return false
		}
		if kd.Real.Graph.Order() != n {
			return false
		}
		if ValidateKDiamond(kd.Blue) != nil {
			return false
		}
		r, err := check.Verify(context.Background(), kd.Real.Graph, k, check.Options{Workers: 1})
		return err == nil && r.IsLHG()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRegularCoverageTheorem7 is the quick-check form of
// Theorem 7: RegularKDiamond holds on exactly the α-grid, RegularKTree on
// exactly the even-α subgrid.
func TestPropertyRegularCoverageTheorem7(t *testing.T) {
	f := func(aRaw, kRaw uint8) bool {
		k := int(kRaw%6) + 3
		alpha := int(aRaw % 30)
		n := 2*k + alpha*(k-1)
		if !RegularKDiamond(n, k) {
			return false
		}
		return RegularKTree(n, k) == (alpha%2 == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
