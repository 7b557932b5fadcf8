package core

import (
	"encoding/json"
	"testing"

	"lhg/internal/graph"
)

func TestBlueprintJSONRoundTrip(t *testing.T) {
	for _, build := range []func() (*Blueprint, error){
		func() (*Blueprint, error) {
			kt, err := BuildKTree(21, 3)
			if err != nil {
				return nil, err
			}
			return kt.Blue, nil
		},
		func() (*Blueprint, error) {
			kd, err := BuildKDiamond(13, 3)
			if err != nil {
				return nil, err
			}
			return kd.Blue, nil
		},
		func() (*Blueprint, error) {
			jd, err := BuildJD(16, 4)
			if err != nil {
				return nil, err
			}
			return jd.Blue, nil
		},
	} {
		blue, err := build()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(blue)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Blueprint
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back.K != blue.K || back.Positions() != blue.Positions() {
			t.Fatalf("shape changed: k=%d/%d positions=%d/%d",
				back.K, blue.K, back.Positions(), blue.Positions())
		}
		for p := 0; p < blue.Positions(); p++ {
			if back.Parent[p] != blue.Parent[p] || back.Kind[p] != blue.Kind[p] ||
				back.Depth[p] != blue.Depth[p] || back.Added[p] != blue.Added[p] {
				t.Fatalf("position %d changed in round trip", p)
			}
		}
		// The decoded blueprint compiles to the identical graph.
		a, err := blue.Compile()
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := a.Graph.Edges(), b.Graph.Edges()
		if len(ea) != len(eb) {
			t.Fatal("edge counts differ after round trip")
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
			}
		}
	}
}

func TestBlueprintJSONRejectsCorruption(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{name: "garbage", data: `nope`},
		{name: "empty", data: `{"k":3,"parent":[],"kind":[],"added":[]}`},
		{name: "length mismatch", data: `{"k":3,"parent":[-1],"kind":[1,1],"added":[false]}`},
		{name: "bad kind", data: `{"k":3,"parent":[-1],"kind":[9],"added":[false]}`},
		{name: "root with parent", data: `{"k":3,"parent":[2],"kind":[1],"added":[false]}`},
		{name: "forward parent", data: `{"k":3,"parent":[-1,2,1],"kind":[1,2,2],"added":[false,false,false]}`},
		{name: "wrong child count", data: `{"k":3,"parent":[-1,0],"kind":[1,2],"added":[false,false]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b Blueprint
			if err := json.Unmarshal([]byte(tt.data), &b); err == nil {
				t.Fatal("decode succeeded, want error")
			}
		})
	}
}

// TestGrowerIsomorphicInvariants: the grower's graph at size n shares every
// isomorphism invariant we track with the canonical builder's graph: degree
// sequence, edge count, diameter and connectivity.
func TestGrowerIsomorphicInvariants(t *testing.T) {
	k := 3
	ktg, err := NewKTreeGrowerAt(k, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	kdg, err := NewKDiamondGrowerAt(k, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 24; step++ {
		if _, err := ktg.Grow(); err != nil {
			t.Fatal(err)
		}
		if _, err := kdg.Grow(); err != nil {
			t.Fatal(err)
		}
		n := 2*k + step + 1
		kt, err := BuildKTree(n, k)
		if err != nil {
			t.Fatal(err)
		}
		compareInvariants(t, "ktree", n, ktg.Graph(), kt.Real.Graph)
		kd, err := BuildKDiamond(n, k)
		if err != nil {
			t.Fatal(err)
		}
		compareInvariants(t, "kdiamond", n, kdg.Graph(), kd.Real.Graph)
	}
}

func compareInvariants(t *testing.T, name string, n int, a, b *graph.Graph) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("%s n=%d: edges %d vs %d", name, n, a.Size(), b.Size())
	}
	da, db := a.Degrees(), b.Degrees()
	counts := map[int]int{}
	for _, d := range da {
		counts[d]++
	}
	for _, d := range db {
		counts[d]--
	}
	for d, c := range counts {
		if c != 0 {
			t.Fatalf("%s n=%d: degree-%d multiplicity differs by %d", name, n, d, c)
		}
	}
	if a.Diameter() != b.Diameter() {
		t.Fatalf("%s n=%d: diameter %d vs %d", name, n, a.Diameter(), b.Diameter())
	}
}
