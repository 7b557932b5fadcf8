package core

import (
	"errors"
	"testing"
)

// FuzzBuilders throws arbitrary (n,k) pairs at every builder: no panics,
// success exactly on the closed-form existence sets, and successful builds
// have the requested size. Run with `go test -fuzz FuzzBuilders` for a
// deeper exploration; the seed corpus runs on every plain `go test`.
func FuzzBuilders(f *testing.F) {
	f.Add(6, 3)
	f.Add(9, 3)
	f.Add(0, 0)
	f.Add(-5, 7)
	f.Add(100, 4)
	f.Add(2, 2)
	f.Add(64, 9)
	f.Fuzz(func(t *testing.T, n, k int) {
		if n < -1000 || n > 3000 || k < -1000 || k > 64 {
			t.Skip("keep sizes sane")
		}
		kt, err := BuildKTree(n, k)
		if (err == nil) != ExistsKTree(n, k) {
			t.Fatalf("K-TREE build err=%v vs Exists=%t at (%d,%d)", err, ExistsKTree(n, k), n, k)
		}
		if err == nil && kt.Real.Graph.Order() != n {
			t.Fatalf("K-TREE(%d,%d) produced %d nodes", n, k, kt.Real.Graph.Order())
		}
		if err != nil && !errors.Is(err, ErrNotConstructible) {
			t.Fatalf("K-TREE error %v does not wrap the sentinel", err)
		}

		kd, err := BuildKDiamond(n, k)
		if (err == nil) != ExistsKDiamond(n, k) {
			t.Fatalf("K-DIAMOND build err=%v vs Exists=%t at (%d,%d)", err, ExistsKDiamond(n, k), n, k)
		}
		if err == nil && kd.Real.Graph.Order() != n {
			t.Fatalf("K-DIAMOND(%d,%d) produced %d nodes", n, k, kd.Real.Graph.Order())
		}

		jd, err := BuildJD(n, k)
		if (err == nil) != ExistsJD(n, k) {
			t.Fatalf("JD build err=%v vs Exists=%t at (%d,%d)", err, ExistsJD(n, k), n, k)
		}
		if err == nil && jd.Real.Graph.Order() != n {
			t.Fatalf("JD(%d,%d) produced %d nodes", n, k, jd.Real.Graph.Order())
		}
	})
}

// FuzzGrowers drives a grower of each family for an arbitrary number of
// steps and checks the structural invariants that must hold at every size:
// correct node count, correct edge count (same as the canonical builder),
// minimum degree k, and the theorem-grid regularity.
func FuzzGrowers(f *testing.F) {
	f.Add(uint8(3), uint8(10))
	f.Add(uint8(4), uint8(25))
	f.Add(uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, kRaw, steps uint8) {
		k := int(kRaw%6) + 3
		ktg, err := NewKTreeGrowerAt(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		kdg, err := NewKDiamondGrowerAt(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < int(steps%80); s++ {
			if _, err := ktg.Grow(); err != nil {
				t.Fatal(err)
			}
			if _, err := kdg.Grow(); err != nil {
				t.Fatal(err)
			}
			n := 2*k + s + 1
			if ktg.N() != n || kdg.N() != n {
				t.Fatalf("sizes %d/%d, want %d", ktg.N(), kdg.N(), n)
			}
			for _, g := range []interface {
				Size() int
				IsRegular(int) bool
				MinDegree() (int, int)
			}{ktg.Graph(), kdg.Graph()} {
				if minDeg, _ := g.MinDegree(); minDeg < k {
					t.Fatalf("n=%d: min degree %d < k=%d", n, minDeg, k)
				}
			}
			kt, err := BuildKTree(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if ktg.Graph().Size() != kt.Real.Graph.Size() {
				t.Fatalf("n=%d: grower edges %d != canonical %d",
					n, ktg.Graph().Size(), kt.Real.Graph.Size())
			}
			if ktg.Graph().IsRegular(k) != RegularKTree(n, k) {
				t.Fatalf("n=%d: K-TREE grower regularity off the grid", n)
			}
			if kdg.Graph().IsRegular(k) != RegularKDiamond(n, k) {
				t.Fatalf("n=%d: K-DIAMOND grower regularity off the grid", n)
			}
		}
	})
}
