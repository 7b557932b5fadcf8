package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"lhg/internal/check"
)

func TestBuildJDRejectsInvalidPairs(t *testing.T) {
	for _, tt := range []struct{ n, k int }{
		{n: 10, k: 2},
		{n: 5, k: 3},
	} {
		if _, err := BuildJD(tt.n, tt.k); !errors.Is(err, ErrNotConstructible) {
			t.Fatalf("BuildJD(%d,%d) err=%v, want ErrNotConstructible", tt.n, tt.k, err)
		}
	}
}

// TestJDOddOffsetsImpossible is the §4.4 claim: for every k there are
// infinitely many pairs JD cannot build; in particular every odd offset
// n = 2k + 2α(k-1) + 3 (and n = 9, k = 3 — the Figure 2(b) example).
func TestJDOddOffsetsImpossible(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for alpha := 0; alpha <= 6; alpha++ {
			n := 2*k + 2*alpha*(k-1) + 3
			if ExistsJD(n, k) {
				t.Fatalf("ExistsJD(%d,%d) = true; §4.4 says odd offsets are unreachable", n, k)
			}
			if _, err := BuildJD(n, k); !errors.Is(err, ErrNotConstructible) {
				t.Fatalf("BuildJD(%d,%d) err=%v, want ErrNotConstructible", n, k, err)
			}
			// ...while K-TREE builds it (Theorem 2).
			if !ExistsKTree(n, k) {
				t.Fatalf("ExistsKTree(%d,%d) = false", n, k)
			}
			if _, err := BuildKTree(n, k); err != nil {
				t.Fatalf("BuildKTree(%d,%d): %v", n, k, err)
			}
		}
	}
}

// TestJDFigure2bGap: the paper's concrete example — (9,3) satisfies K-TREE
// but cannot be produced by the Jenkins-Demers rule.
func TestJDFigure2bGap(t *testing.T) {
	if ExistsJD(9, 3) {
		t.Fatal("JD must not be able to build (9,3)")
	}
	if !ExistsKTree(9, 3) {
		t.Fatal("K-TREE must build (9,3)")
	}
}

// TestJDBuildsItsReachableSet: wherever the decomposition succeeds, the
// builder emits a graph of the right size that satisfies the JD rule, the
// K-TREE constraint (the §4.4 inclusion) and all LHG properties.
func TestJDBuildsItsReachableSet(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for n := 2 * k; n <= 10*k; n++ {
			want := ExistsJD(n, k)
			jd, err := BuildJD(n, k)
			if (err == nil) != want {
				t.Fatalf("BuildJD(%d,%d) err=%v, ExistsJD=%t", n, k, err, want)
			}
			if err != nil {
				continue
			}
			if jd.Real.Graph.Order() != n {
				t.Fatalf("BuildJD(%d,%d) produced %d nodes", n, k, jd.Real.Graph.Order())
			}
			if err := ValidateJD(jd.Blue); err != nil {
				t.Fatalf("JD blueprint (%d,%d) invalid: %v", n, k, err)
			}
			if err := ValidateKTree(jd.Blue); err != nil {
				t.Fatalf("JD blueprint (%d,%d) violates K-TREE: %v", n, k, err)
			}
			r, err := check.Verify(context.Background(), jd.Real.Graph, k, check.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.IsLHG() {
				t.Fatalf("JD(%d,%d) is not an LHG: %s", n, k, r)
			}
		}
	}
}

// TestJDReachableSubsetOfKTree: EX_JD ⇒ EX_K-TREE everywhere, and the
// inclusion is strict for every k (infinitely many gaps).
func TestJDReachableSubsetOfKTree(t *testing.T) {
	for k := 3; k <= 6; k++ {
		gaps := 0
		for n := 2 * k; n <= 20*k; n++ {
			jd := ExistsJD(n, k)
			kt := ExistsKTree(n, k)
			if jd && !kt {
				t.Fatalf("EX_JD true but EX_K-TREE false at (%d,%d)", n, k)
			}
			if kt && !jd {
				gaps++
			}
		}
		if gaps == 0 {
			t.Fatalf("k=%d: expected JD gaps in [2k, 20k], found none", k)
		}
	}
}

// TestJDParityGap: with the formalized rule, every reachable n has even
// offset n-2k; all odd offsets are gaps.
func TestJDParityGap(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := 2 * k; n <= 15*k; n++ {
			if (n-2*k)%2 == 1 && ExistsJD(n, k) {
				t.Fatalf("ExistsJD(%d,%d) true for odd offset %d", n, k, n-2*k)
			}
		}
	}
}

// TestJDBaseCaseNoExceptionsAtHeightOne: with only the root above the
// leaves there are no interior hosts, so the only height-1 JD graph is the
// minimal (2k,k).
func TestJDBaseCaseNoExceptionsAtHeightOne(t *testing.T) {
	for k := 3; k <= 6; k++ {
		if !ExistsJD(2*k, k) {
			t.Fatalf("ExistsJD(2k,k) = false for k=%d", k)
		}
		for n := 2*k + 1; n < 2*k+2*(k-1); n++ {
			if ExistsJD(n, k) {
				t.Fatalf("ExistsJD(%d,%d) = true inside the first gap", n, k)
			}
		}
	}
}

func TestJDDecomposition(t *testing.T) {
	tests := []struct {
		n, k, alpha, beta int
		ok                bool
	}{
		{n: 6, k: 3, alpha: 0, beta: 0, ok: true},
		{n: 10, k: 3, alpha: 1, beta: 0, ok: true},
		{n: 12, k: 3, alpha: 1, beta: 1, ok: true},
		{n: 9, k: 3, ok: false},
		{n: 8, k: 3, ok: false}, // would need an exception on the root
		{n: 16, k: 4, alpha: 1, beta: 1, ok: true},
	}
	for _, tt := range tests {
		alpha, beta, ok := jdDecompose(tt.n, tt.k)
		if ok != tt.ok {
			t.Fatalf("jdDecompose(%d,%d) ok=%t, want %t", tt.n, tt.k, ok, tt.ok)
		}
		if ok && (alpha != tt.alpha || beta != tt.beta) {
			t.Fatalf("jdDecompose(%d,%d) = (%d,%d), want (%d,%d)",
				tt.n, tt.k, alpha, beta, tt.alpha, tt.beta)
		}
	}
}

// TestJDExceptionNodeDegrees: exception nodes carry k+1 children, so their
// degree is k+2; all other degrees are exactly k.
func TestJDExceptionNodeDegrees(t *testing.T) {
	jd, err := BuildJD(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if jd.Beta != 1 {
		t.Fatalf("JD(12,3) β=%d, want 1", jd.Beta)
	}
	countKPlus2 := 0
	for _, d := range jd.Real.Graph.Degrees() {
		switch d {
		case 3:
		case 5: // k+2
			countKPlus2++
		default:
			t.Fatalf("JD(12,3) unexpected degree %d", d)
		}
	}
	if countKPlus2 != jd.Beta*jd.K {
		t.Fatalf("found %d degree-(k+2) nodes, want β*k = %d", countKPlus2, jd.Beta*jd.K)
	}
}

// TestRegularJDMatchesKTreeRegularSet: JD is regular exactly on the K-TREE
// regular grid (β = 0 instances).
func TestRegularJDMatchesKTreeRegularSet(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := 2 * k; n <= 15*k; n++ {
			if RegularJD(n, k) != RegularKTree(n, k) {
				t.Fatalf("RegularJD and RegularKTree disagree at (%d,%d)", n, k)
			}
		}
	}
}

func TestPropertyJDGraphsVerify(t *testing.T) {
	f := func(aRaw, bRaw, kRaw uint8) bool {
		k := int(kRaw%3) + 3
		alpha := int(aRaw % 8)
		beta := int(bRaw) % (k + 1)
		n := 2*k + alpha*2*(k-1) + 2*beta
		if !ExistsJD(n, k) {
			return true // host-count may forbid this β at this α; fine
		}
		jd, err := BuildJD(n, k)
		if err != nil {
			return false
		}
		r, err := check.Verify(context.Background(), jd.Real.Graph, k, check.Options{Workers: 1})
		return err == nil && r.IsLHG() && jd.Real.Graph.Order() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
