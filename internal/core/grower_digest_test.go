package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"testing"
)

// growerDigests pins the exact delta stream of both families: the SHA-256
// of every canonical delta of a fixed-seed churn run followed by the final
// edge list. Any change to a label, an edge or the order of a delta moves
// the digest. Regenerate only on an intended change of the construction.
var growerDigests = map[string]string{
	"ktree/k=3":    "60f184f4f8cd5ad43214699d698ab22d2fa44d99570c3931c4e4103d122ba186",
	"ktree/k=4":    "4f1e823e88d56b2922758a1b026f9cedc2b6da8de1f71ffdfafa8f79cca31b64",
	"ktree/k=5":    "2a932616bc2a682b6a3d66ee6aea125e9453d51e5eca32795bdc19ee66220c7a",
	"kdiamond/k=3": "7c64c7bbde92e375ef39c327842e8cd4a1465b4526868dae4d3ab589ca56e02e",
	"kdiamond/k=4": "43f68387ccd9f24f2ff566386bbfa442565564ae7fcf26ab5fadb9613f9af487",
	"kdiamond/k=5": "8c0906a7f9f419e20afafbea2effb42ce45b2aa2aa8f7848cab154ba14c53a05",
}

func hashDelta(h hash.Hash, d EdgeDelta) {
	for _, e := range d.Added {
		fmt.Fprintf(h, "+%d,%d ", e.U, e.V)
	}
	for _, e := range d.Removed {
		fmt.Fprintf(h, "-%d,%d ", e.U, e.V)
	}
	h.Write([]byte{'\n'})
}

// churnDigest runs about 300 seeded joins and leaves on gr, as single Grow
// and Shrink calls and as Apply batches of up to 8 changes, and hashes the
// deltas and the final edge list. Leaves that would go below 2k turn into
// joins, so every step succeeds.
func churnDigest(t *testing.T, gr *Grower, seed uint64) string {
	t.Helper()
	k := gr.K()
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	h := sha256.New()
	draw := func(n int) Change {
		if n > 2*k && rng.Float64() < 0.4 {
			return ChangeLeave
		}
		return ChangeJoin
	}
	for ops := 0; ops < 300; {
		if rng.IntN(2) == 0 {
			var d EdgeDelta
			var err error
			if draw(gr.N()) == ChangeJoin {
				d, err = gr.Grow()
			} else {
				d, err = gr.Shrink()
			}
			if err != nil {
				t.Fatalf("op %d at n=%d: %v", ops, gr.N(), err)
			}
			hashDelta(h, d)
			ops++
			continue
		}
		batch := make([]Change, 1+rng.IntN(8))
		n := gr.N()
		for i := range batch {
			batch[i] = draw(n)
			if batch[i] == ChangeJoin {
				n++
			} else {
				n--
			}
		}
		d, err := gr.Apply(batch)
		if err != nil {
			t.Fatalf("batch at op %d: %v", ops, err)
		}
		hashDelta(h, d)
		ops += len(batch)
	}
	hashDelta(h, EdgeDelta{Added: gr.Graph().Edges()})
	return hex.EncodeToString(h.Sum(nil))
}

// TestGrowerDeltaDigests: the delta streams of both families are
// byte-identical to the recorded ones, for k = 3, 4, 5.
func TestGrowerDeltaDigests(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		for family, at := range map[string]func(k, n int) (*Grower, error){
			"ktree":    NewKTreeGrowerAt,
			"kdiamond": NewKDiamondGrowerAt,
		} {
			name := fmt.Sprintf("%s/k=%d", family, k)
			gr, err := at(k, 2*k)
			if err != nil {
				t.Fatal(err)
			}
			if got := churnDigest(t, gr, 27); got != growerDigests[name] {
				t.Errorf("%s: delta digest %s, want %s", name, got, growerDigests[name])
			}
		}
	}
}

// TestGrowerFamiliesMeetAtBatchBoundaries: at every batch boundary
// n = 2k + m(2k−2) the two families hold the same labelled graph. K-DIAMOND
// differs from K-TREE only by the clique it forms in the middle of a batch.
func TestGrowerFamiliesMeetAtBatchBoundaries(t *testing.T) {
	for k := 3; k <= 6; k++ {
		kt, err := NewKTreeGrowerAt(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		kd, err := NewKDiamondGrowerAt(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 40; m++ {
			n := 2*k + m*(2*k-2)
			for kt.N() < n {
				if _, err := kt.Grow(); err != nil {
					t.Fatal(err)
				}
				if _, err := kd.Grow(); err != nil {
					t.Fatal(err)
				}
			}
			if !graphsEqual(kt.Graph(), kd.Graph()) {
				t.Fatalf("k=%d n=%d: K-TREE and K-DIAMOND graphs differ at a batch boundary", k, n)
			}
		}
	}
}
