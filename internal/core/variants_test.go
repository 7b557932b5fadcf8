package core

import (
	"context"
	"testing"
	"testing/quick"

	"lhg/internal/check"
	"lhg/internal/sim"
)

func TestKTreeVariantRejectsInvalidPairs(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := BuildKTreeVariant(5, 3, rng); err == nil {
		t.Fatal("n < 2k must fail")
	}
	if _, err := BuildKDiamondVariant(10, 2, rng); err == nil {
		t.Fatal("k < 3 must fail")
	}
}

// TestVariantsSatisfyConstraintAndLHG is the generality check behind
// Theorems 1 and 4: randomly sampled witnesses of the constraints — not
// just the canonical shapes — are valid LHGs.
func TestVariantsSatisfyConstraintAndLHG(t *testing.T) {
	rng := sim.NewRNG(20260705)
	for k := 3; k <= 4; k++ {
		for n := 2 * k; n <= 7*k; n++ {
			for trial := 0; trial < 3; trial++ {
				kt, err := BuildKTreeVariant(n, k, rng)
				if err != nil {
					t.Fatalf("ktree variant (%d,%d): %v", n, k, err)
				}
				if kt.Real.Graph.Order() != n {
					t.Fatalf("ktree variant (%d,%d) has %d nodes", n, k, kt.Real.Graph.Order())
				}
				if err := ValidateKTree(kt.Blue); err != nil {
					t.Fatalf("ktree variant (%d,%d) violates the constraint: %v", n, k, err)
				}
				r, err := check.Verify(context.Background(), kt.Real.Graph, k, check.Options{Workers: 1})
				if err != nil || !r.IsLHG() {
					t.Fatalf("ktree variant (%d,%d) is not an LHG (err=%v)", n, k, err)
				}

				kd, err := BuildKDiamondVariant(n, k, rng)
				if err != nil {
					t.Fatalf("kdiamond variant (%d,%d): %v", n, k, err)
				}
				if kd.Real.Graph.Order() != n {
					t.Fatalf("kdiamond variant (%d,%d) has %d nodes", n, k, kd.Real.Graph.Order())
				}
				if err := ValidateKDiamond(kd.Blue); err != nil {
					t.Fatalf("kdiamond variant (%d,%d) violates the constraint: %v", n, k, err)
				}
				r, err = check.Verify(context.Background(), kd.Real.Graph, k, check.Options{Workers: 1})
				if err != nil || !r.IsLHG() {
					t.Fatalf("kdiamond variant (%d,%d) is not an LHG (err=%v)", n, k, err)
				}
			}
		}
	}
}

// TestVariantsMatchTheoremGrids: variant witnesses obey the same
// regularity characterization as the canonical ones — regularity is a
// property of the pair, not of the witness choice.
func TestVariantsMatchTheoremGrids(t *testing.T) {
	rng := sim.NewRNG(99)
	for k := 3; k <= 5; k++ {
		for n := 2 * k; n <= 8*k; n++ {
			kt, err := BuildKTreeVariant(n, k, rng)
			if err != nil {
				t.Fatal(err)
			}
			if kt.Real.Graph.IsRegular(k) != RegularKTree(n, k) {
				t.Fatalf("ktree variant (%d,%d) regularity off the Theorem 3 grid", n, k)
			}
			kd, err := BuildKDiamondVariant(n, k, rng)
			if err != nil {
				t.Fatal(err)
			}
			if kd.Real.Graph.IsRegular(k) != RegularKDiamond(n, k) {
				t.Fatalf("kdiamond variant (%d,%d) regularity off the Theorem 6 grid", n, k)
			}
		}
	}
}

// TestVariantsProduceDiverseWitnesses: different seeds reach different
// graphs for pairs with real freedom (enough conversions/added leaves).
func TestVariantsProduceDiverseWitnesses(t *testing.T) {
	const n, k = 21, 3
	distinct := map[string]bool{}
	for seed := uint64(1); seed <= 12; seed++ {
		kt, err := BuildKTreeVariant(n, k, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		sig := ""
		for _, e := range kt.Real.Graph.Edges() {
			sig += string(rune(e.U)) + string(rune(e.V))
		}
		distinct[sig] = true
	}
	if len(distinct) < 2 {
		t.Fatal("variant builder produced a single witness across 12 seeds")
	}
}

// TestVariantsDeterministicPerSeed: the same seed reproduces the same
// witness.
func TestVariantsDeterministicPerSeed(t *testing.T) {
	a, err := BuildKDiamondVariant(26, 4, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildKDiamondVariant(26, 4, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Real.Graph.Edges(), b.Real.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatal("sizes differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestPropertyVariantsAlwaysValid(t *testing.T) {
	f := func(seed uint32, nRaw, kRaw uint8) bool {
		k := int(kRaw%3) + 3
		n := 2*k + int(nRaw)%40
		rng := sim.NewRNG(uint64(seed) + 1)
		kt, err := BuildKTreeVariant(n, k, rng)
		if err != nil || kt.Real.Graph.Order() != n {
			return false
		}
		if ValidateKTree(kt.Blue) != nil {
			return false
		}
		kd, err := BuildKDiamondVariant(n, k, rng)
		if err != nil || kd.Real.Graph.Order() != n {
			return false
		}
		return ValidateKDiamond(kd.Blue) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
