package core

import (
	"context"
	"reflect"
	"testing"

	"lhg/internal/check"
)

// FuzzReconfigureEquivFresh is the differential churn fuzzer: ANY
// interleaving of joins and leaves must leave the engine on a graph that is
// bit-identical to a fresh grower driven straight to the same n — and,
// since check.Verify is a pure function of the graph, with an identical
// verification report. The report comparison (timings excluded — wall
// clock is not part of the contract) runs on the smaller sizes so the
// corpus stays fast enough for every plain `go test`.
//
// The seed corpus pins the known-dangerous schedules: pure joins, pure
// leaves after a ramp, strict alternation, and leaves landing exactly on
// the batch boundaries j = 2k−3 (K-TREE promotion) and j = k−2
// (K-DIAMOND form/dissolve).
func FuzzReconfigureEquivFresh(f *testing.F) {
	f.Add(uint8(3), uint8(0), []byte{1, 1, 1, 1, 1, 1, 1, 1})       // pure joins
	f.Add(uint8(3), uint8(0), []byte{1, 1, 1, 1, 1, 1, 0, 0, 0, 0}) // ramp then pure leaves
	f.Add(uint8(3), uint8(1), []byte{1, 0, 1, 0, 1, 0, 1, 0})       // alternating
	f.Add(uint8(3), uint8(0), []byte{1, 1, 1, 0, 1, 0, 0, 1})       // K-TREE boundary j=2k-3=3
	f.Add(uint8(3), uint8(1), []byte{1, 0, 0, 1, 1, 1, 0})          // K-DIAMOND boundary j=k-2=1
	f.Add(uint8(4), uint8(0), []byte{1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0})
	f.Add(uint8(5), uint8(1), []byte{0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, kRaw, which uint8, ops []byte) {
		k := int(kRaw%4) + 3
		if len(ops) > 64 {
			ops = ops[:64]
		}
		at := NewKTreeGrowerAt
		if which%2 == 1 {
			at = NewKDiamondGrowerAt
		}
		gr, err := at(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		joins, leaves := 0, 0
		for i, op := range ops {
			if op%2 == 1 {
				if _, err := gr.Grow(); err != nil {
					t.Fatalf("op %d (join) at n=%d: %v", i, gr.N(), err)
				}
				joins++
				continue
			}
			if gr.N() <= 2*k {
				// A leave at the minimal size must fail and leave the
				// engine untouched.
				before := gr.Graph()
				if _, err := gr.Shrink(); err == nil {
					t.Fatalf("op %d: leave at n=2k must fail", i)
				}
				if !graphsEqual(before, gr.Graph()) {
					t.Fatalf("op %d: failed leave mutated the graph", i)
				}
				continue
			}
			if _, err := gr.Shrink(); err != nil {
				t.Fatalf("op %d (leave) at n=%d: %v", i, gr.N(), err)
			}
			leaves++
		}
		ref, err := at(k, gr.N())
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(gr.Graph(), ref.Graph()) {
			t.Fatalf("k=%d after %d joins / %d leaves: churned graph differs from fresh build at n=%d",
				k, joins, leaves, gr.N())
		}
		if gr.N() <= 2*k+12 {
			got, err := check.Verify(context.Background(), gr.Graph(), k, check.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := check.Verify(context.Background(), ref.Graph(), k, check.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got.Phases, want.Phases = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d n=%d: churned report %s differs from fresh %s", k, gr.N(), got, want)
			}
		}
	})
}
