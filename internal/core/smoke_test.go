package core

import (
	"context"
	"testing"

	"lhg/internal/check"
)

// TestSmokePaperWitnesses is the first end-to-end sanity pass over the
// witness pairs drawn in the paper's figures. Deeper suites live in the
// dedicated *_test.go files.
func TestSmokePaperWitnesses(t *testing.T) {
	tests := []struct {
		name    string
		n, k    int
		build   func(n, k int) (*Realization, *Blueprint, error)
		regular bool
	}{
		{name: "ktree 6,3 (fig 2a)", n: 6, k: 3, build: buildKTreeRB, regular: true},
		{name: "ktree 9,3 (fig 2b)", n: 9, k: 3, build: buildKTreeRB, regular: false},
		{name: "ktree 10,3 (fig 2c)", n: 10, k: 3, build: buildKTreeRB, regular: true},
		{name: "ktree 21,3 (fig 1)", n: 21, k: 3, build: buildKTreeRB, regular: false},
		{name: "kdiamond 7,3 (fig 3a)", n: 7, k: 3, build: buildKDiamondRB, regular: false},
		{name: "kdiamond 8,3 (fig 3b)", n: 8, k: 3, build: buildKDiamondRB, regular: true},
		{name: "kdiamond 13,3 (fig 3c)", n: 13, k: 3, build: buildKDiamondRB, regular: false},
		{name: "kdiamond 14,3 (fig 3d)", n: 14, k: 3, build: buildKDiamondRB, regular: true},
		{name: "jd 6,3", n: 6, k: 3, build: buildJDRB, regular: true},
		{name: "jd 10,3", n: 10, k: 3, build: buildJDRB, regular: true},
		{name: "jd 12,3", n: 12, k: 3, build: buildJDRB, regular: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			real, blue, err := tt.build(tt.n, tt.k)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if got := real.Graph.Order(); got != tt.n {
				t.Fatalf("graph has %d nodes, want %d", got, tt.n)
			}
			if got := blue.NodeCount(); got != tt.n {
				t.Fatalf("blueprint counts %d nodes, want %d", got, tt.n)
			}
			r, err := check.Verify(context.Background(), real.Graph, tt.k, check.Options{Workers: 1})
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if !r.IsLHG() {
				t.Fatalf("not an LHG: %s", r)
			}
			if r.Regular != tt.regular {
				t.Fatalf("regular=%t, want %t (%s)", r.Regular, tt.regular, r)
			}
		})
	}
}

func buildKTreeRB(n, k int) (*Realization, *Blueprint, error) {
	kt, err := BuildKTree(n, k)
	if err != nil {
		return nil, nil, err
	}
	if err := ValidateKTree(kt.Blue); err != nil {
		return nil, nil, err
	}
	return kt.Real, kt.Blue, nil
}

func buildKDiamondRB(n, k int) (*Realization, *Blueprint, error) {
	kd, err := BuildKDiamond(n, k)
	if err != nil {
		return nil, nil, err
	}
	if err := ValidateKDiamond(kd.Blue); err != nil {
		return nil, nil, err
	}
	return kd.Real, kd.Blue, nil
}

func buildJDRB(n, k int) (*Realization, *Blueprint, error) {
	jd, err := BuildJD(n, k)
	if err != nil {
		return nil, nil, err
	}
	if err := ValidateJD(jd.Blue); err != nil {
		return nil, nil, err
	}
	// Every JD blueprint must also satisfy the K-TREE constraint (§4.4).
	if err := ValidateKTree(jd.Blue); err != nil {
		return nil, nil, err
	}
	return jd.Real, jd.Blue, nil
}
