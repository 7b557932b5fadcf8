package flow_test

import (
	"context"
	"runtime"
	"testing"

	"lhg"
	"lhg/internal/flow"
	"lhg/internal/obs"
)

// TestNetworkFreeListSurvivesGC pins the arena free list: garbage
// collections between serial verifications must not cost a network
// rebuild (a sync.Pool would drop its networks at every GC), and a
// parallel sweep, which draws a copy per extra worker, must leave no more
// than the list's bound behind. A verification takes ~25× longer under
// the race detector, and the races it looks for are in the parallel
// sweep, so a -race build runs 2 of the 20 serial rounds.
func TestNetworkFreeListSurvivesGC(t *testing.T) {
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	ctx := context.Background()
	g, err := lhg.Build(ctx, lhg.KDiamond, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(workers int) {
		t.Helper()
		r, err := lhg.Verify(ctx, g, 4, lhg.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !r.IsLHG() {
			t.Fatalf("K-DIAMOND(1024,4) is not an LHG: %s", r)
		}
	}
	rounds := 20
	if flow.RaceEnabled {
		rounds = 2
	}
	verify(1) // warm-up: fills the list
	before := flow.PoolMisses()
	for i := 0; i < rounds; i++ {
		runtime.GC()
		runtime.GC()
		verify(1)
	}
	if got := flow.PoolMisses() - before; got != 0 {
		t.Fatalf("%d serial verifications with GCs between them missed the free list %d times, want 0", rounds, got)
	}
	verify(3)
	if got := flow.FreeNetworks(); got > flow.NetFreeMax {
		t.Fatalf("free list holds %d networks after a 3-worker sweep, bound %d", got, flow.NetFreeMax)
	}
}
