package netflood

import (
	"math"
	"testing"

	"lhg/internal/sim"
)

// TestDedupMatchesSetReference replays seeded (src, seq) streams through
// the per-origin watermark and through a plain set of delivered ids: every
// event must get the same deliver/drop verdict. The streams mix in-order
// runs, duplicates, reordering, seqs that are skipped for good (permanent
// gaps), negative seqs and far-ahead ones. The same stream handed to a
// live node must leave exactly the reference's deliveries in its log.
func TestDedupMatchesSetReference(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := sim.NewRNG(seed)
		d := make(dedup)
		ref := make(map[id]struct{})
		next := make(map[int]int) // per origin: the next in-order seq to draw
		var stream []id
		for ev := 0; ev < 4000; ev++ {
			src := rng.Intn(4) - 1
			var seq int
			switch r := rng.Intn(20); {
			case r < 9: // in order, now and then skipping one for good
				if rng.Intn(10) == 0 {
					next[src]++
				}
				seq = next[src]
				next[src]++
			case r < 14 && len(stream) > 0: // a copy of an earlier event
				k := stream[rng.Intn(len(stream))]
				src, seq = k.src, k.seq
			case r < 16: // reordered: anywhere near the in-order front
				seq = rng.Intn(next[src] + 8)
			case r < 17:
				seq = -1 - rng.Intn(4)
			case r < 18:
				seq = math.MinInt + rng.Intn(2)
			case r < 19:
				seq = next[src] + 100 + rng.Intn(1000)
			default:
				seq = math.MaxInt - rng.Intn(2)
			}
			k := id{src: src, seq: seq}
			_, dup := ref[k]
			ref[k] = struct{}{}
			if got := d.first(src, seq); got == dup {
				t.Fatalf("seed %d event %d: first(%d, %d) = %v, reference says duplicate=%v",
					seed, ev, src, seq, got, dup)
			}
			stream = append(stream, k)
		}

		c := StartEmpty()
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
		for _, k := range stream {
			c.lookup(0).handle(Message{Src: k.src, Seq: k.seq})
		}
		logged := make(map[id]int)
		for _, m := range c.Delivered(0) {
			logged[id{src: m.Src, seq: m.Seq}]++
		}
		c.Shutdown()
		if len(logged) != len(ref) || c.deliveredCount(0) != len(ref) {
			t.Fatalf("seed %d: node logged %d distinct of %d entries, reference holds %d",
				seed, len(logged), c.deliveredCount(0), len(ref))
		}
		for k := range ref {
			if logged[k] != 1 {
				t.Fatalf("seed %d: node logged %v %d times", seed, k, logged[k])
			}
		}
	}
}

// TestDedupAbsorbsFilledGaps delivers each origin's seqs 0..n-1 in a
// shuffled order: once every gap has filled, the origin is a bare
// watermark with no set left behind.
func TestDedupAbsorbsFilledGaps(t *testing.T) {
	const n = 500
	rng := sim.NewRNG(7)
	d := make(dedup)
	for src := 0; src < 3; src++ {
		for _, seq := range rng.Perm(n) {
			if !d.first(src, seq) {
				t.Fatalf("origin %d: first copy of seq %d dropped", src, seq)
			}
		}
		if o := d[src]; o.next != n || o.later != nil {
			t.Fatalf("origin %d: next=%d with %d seqs held, want next=%d and none", src, o.next, len(o.later), n)
		}
	}
}
