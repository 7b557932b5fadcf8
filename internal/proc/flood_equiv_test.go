package proc

import (
	"testing"
	"testing/quick"

	"lhg/internal/flood"
	"lhg/internal/graph"
	"lhg/internal/sim"
)

// With unit latency and no send overhead the protocol is the round flood
// of package flood run on the event queue: a process first hears the
// message at the round flood.Run reaches it, and crashed processes never
// hear it. Every transmission of a delivering process is one message of
// flood.Run, except those that land on a crashed process (flood.Run does
// not send to crashed neighbors; here they arrive and are dropped).

// floodEquivalent broadcasts from source over g with the given processes
// crashed at time 0 and compares the protocol run against flood.Run.
func floodEquivalent(t testing.TB, g *graph.Graph, source int, crashed []int) (ok bool, why string) {
	t.Helper()
	var opts []Option
	for _, v := range crashed {
		opts = append(opts, WithCrashAt(v, 0))
	}
	nw, err := NewNetwork(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := nw.Broadcast(source, "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run()
	want, err := flood.Run(g, source, flood.Failures{Nodes: crashed})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.Order(); v++ {
		if got := nw.HeardAt(v, mid); got != int64(want.FirstHeard[v]) {
			return false, "HeardAt differs from flood.Run FirstHeard"
		}
	}
	if nw.MessagesSent() != want.Messages+nw.Dropped() {
		return false, "MessagesSent != flood.Run Messages + dropped arrivals"
	}
	if len(crashed) == 0 && (nw.MessagesSent() != want.Messages || nw.Dropped() != 0) {
		return false, "fault-free MessagesSent != flood.Run Messages"
	}
	return true, ""
}

func TestUnitLatencyMatchesFloodRounds(t *testing.T) {
	if ok, why := floodEquivalent(t, ktree(t, 30, 3), 0, nil); !ok {
		t.Fatal(why)
	}
}

func TestUnitLatencyMatchesFloodWithCrashes(t *testing.T) {
	g := ktree(t, 20, 3)
	crashed := []int{4, 9}
	if ok, why := floodEquivalent(t, g, 0, crashed); !ok {
		t.Fatal(why)
	}
	// A 3-connected graph survives 2 crashes: the 18 correct processes all
	// deliver.
	res, err := flood.Run(g, 0, flood.Failures{Nodes: crashed})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Reached != 18 {
		t.Fatalf("reached %d of 18 correct processes", res.Reached)
	}
}

func TestPropertyUnitLatencyMatchesFlood(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		size := int(nRaw%12) + 3
		b := graph.NewBuilder(size)
		state := uint64(seed) | 1
		next := func() uint64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state
		}
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				if next()%3 == 0 {
					b.MustAddEdge(u, v)
				}
			}
		}
		g := b.Freeze()
		// Every other case is fault-free; the rest crash up to half the
		// non-source processes at time 0.
		var crashed []int
		if seed%2 == 1 {
			rng := sim.NewRNG(uint64(seed) * 31)
			for _, v := range rng.Sample(size-1, rng.Intn(size/2)) {
				crashed = append(crashed, v+1)
			}
		}
		ok, _ := floodEquivalent(t, g, 0, crashed)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestUniformLatencyScalesFloodRounds: with every link taking d time units
// a process hears the message at d times its flood.Run round, so on a
// five-node path with d = 2 the farthest process hears it at 8.
func TestUniformLatencyScalesFloodRounds(t *testing.T) {
	b := graph.NewBuilder(5)
	for v := 0; v+1 < 5; v++ {
		b.MustAddEdge(v, v+1)
	}
	g := b.Freeze()
	nw, err := NewNetwork(g, WithLatency(func(u, v int) int64 { return 2 }))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := nw.Broadcast(0, "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run()
	want, err := flood.Run(g, 0, flood.Failures{})
	if err != nil {
		t.Fatal(err)
	}
	var makespan int64
	for v := 0; v < g.Order(); v++ {
		at := nw.HeardAt(v, mid)
		if at != 2*int64(want.FirstHeard[v]) {
			t.Fatalf("process %d heard at %d, want 2×round %d", v, at, want.FirstHeard[v])
		}
		makespan = max(makespan, at)
	}
	if makespan != 8 {
		t.Fatalf("makespan = %d, want 8", makespan)
	}
}
