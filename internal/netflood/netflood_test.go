package netflood

import (
	"testing"
	"time"

	"lhg/internal/core"
	"lhg/internal/graph"
)

// collect drains the delivery stream until every one of `want` deliveries
// arrived or the deadline passes, returning per-node delivery counts.
func collect(t *testing.T, c *Cluster, want int) map[int]int {
	t.Helper()
	counts := make(map[int]int)
	// Deliveries carry no node id; count via Delivered polling instead.
	deadline := time.After(10 * time.Second)
	for {
		total := 0
		for i := 0; i < c.Size(); i++ {
			n := len(c.Delivered(i))
			counts[i] = n
			total += n
		}
		if total >= want {
			return counts
		}
		select {
		case <-deadline:
			t.Fatalf("timed out: %d of %d deliveries", total, want)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestStartRejectsEmptyTopology(t *testing.T) {
	if _, err := Start(graph.New(0)); err == nil {
		t.Fatal("empty topology must error")
	}
}

func TestBroadcastReachesEveryNodeOverTCP(t *testing.T) {
	kt, err := core.BuildKTree(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(kt.Real.Graph)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	msg, err := c.Broadcast(0, "over the wire")
	if err != nil {
		t.Fatal(err)
	}
	counts := collect(t, c, 12)
	for i := 0; i < 12; i++ {
		if counts[i] != 1 {
			t.Fatalf("node %d delivered %d messages, want 1", i, counts[i])
		}
		// Delivered copies carry their hop count, so compare identity and
		// payload rather than the whole struct.
		got := c.Delivered(i)
		if got[0].Src != msg.Src || got[0].Seq != msg.Seq || got[0].Payload != msg.Payload {
			t.Fatalf("node %d delivered %+v, want %+v", i, got[0], msg)
		}
		if i != 0 && got[0].Hops == 0 {
			t.Fatalf("node %d delivered with 0 hops", i)
		}
	}
}

func TestMultipleBroadcastsAllDelivered(t *testing.T) {
	kt, err := core.BuildKDiamond(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(kt.Real.Graph)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	const rounds = 5
	for r := 0; r < rounds; r++ {
		src := r % c.Size()
		if _, err := c.Broadcast(src, "m"); err != nil {
			t.Fatal(err)
		}
	}
	counts := collect(t, c, rounds*c.Size())
	for i := 0; i < c.Size(); i++ {
		if counts[i] != rounds {
			t.Fatalf("node %d delivered %d, want %d", i, counts[i], rounds)
		}
	}
}

func TestBroadcastUnknownNode(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	c, err := Start(g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Broadcast(9, "x"); err == nil {
		t.Fatal("unknown source must error")
	}
}

func TestDeliveredOutOfRange(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	c, err := Start(g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if c.Delivered(-1) != nil || c.Delivered(5) != nil {
		t.Fatal("out-of-range Delivered must be nil")
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	c, err := Start(g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	a, err := c.Broadcast(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Broadcast(0, "b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq != a.Seq+1 {
		t.Fatalf("sequence %d then %d", a.Seq, b.Seq)
	}
}

func TestShutdownIsIdempotentAndStopsGoroutines(t *testing.T) {
	kt, err := core.BuildKTree(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(kt.Real.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Broadcast(0, "x"); err != nil {
		t.Fatal(err)
	}
	collect(t, c, 8)
	c.Shutdown()
	c.Shutdown() // must not panic or deadlock
}

func TestDeliveryStreamCarriesPayloads(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	c, err := Start(g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Broadcast(1, "payload-x"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for seen := 0; seen < 3; {
		select {
		case m := <-c.Deliveries():
			if m.Payload != "payload-x" || m.Src != 1 {
				t.Fatalf("unexpected delivery %+v", m)
			}
			seen++
		case <-deadline:
			t.Fatal("timed out waiting for deliveries")
		}
	}
}

func TestCrashToleranceOverTCP(t *testing.T) {
	// 4-connected topology, crash 3 nodes, flood from a survivor: every
	// alive node must still deliver — the paper's guarantee over real
	// sockets.
	kt, err := core.BuildKDiamond(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(kt.Real.Graph)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	for _, victim := range []int{3, 8, 14} {
		if !c.CrashNode(victim) {
			t.Fatalf("crash of %d failed", victim)
		}
	}
	if c.CrashNode(3) {
		t.Fatal("double crash must report false")
	}
	if c.CrashNode(99) {
		t.Fatal("out-of-range crash must report false")
	}
	if c.Alive(3) || !c.Alive(0) {
		t.Fatal("alive bookkeeping wrong")
	}

	if _, err := c.Broadcast(0, "survive"); err != nil {
		t.Fatal(err)
	}
	// All 17 survivors must deliver.
	deadline := time.After(10 * time.Second)
	for {
		total := 0
		for i := 0; i < c.Size(); i++ {
			if c.Alive(i) && len(c.Delivered(i)) == 1 {
				total++
			}
		}
		if total == 17 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d of 17 survivors delivered", total)
		case <-time.After(5 * time.Millisecond):
		}
	}
	for _, victim := range []int{3, 8, 14} {
		if len(c.Delivered(victim)) != 0 {
			t.Fatalf("crashed node %d delivered", victim)
		}
	}
}

func TestLiveGrowthOverTCP(t *testing.T) {
	// Drive a real socket cluster with the incremental grower: start at the
	// minimal (2k,k) overlay and admit nodes one at a time by applying the
	// grower's edge deltas to live connections.
	const k = 3
	gr, err := core.NewKTreeGrowerAt(k, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	c := StartEmpty()
	defer c.Shutdown()
	for i := 0; i < gr.N(); i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range gr.Graph().Edges() {
		if err := c.Connect(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	const target = 16
	for gr.N() < target {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
		delta, err := gr.Grow()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Apply(delta); err != nil {
			t.Fatal(err)
		}
	}
	if c.Size() != target {
		t.Fatalf("cluster size %d, want %d", c.Size(), target)
	}
	// Broadcast from the newest member: it must reach all 16 over the
	// reconfigured sockets.
	if _, err := c.Broadcast(target-1, "grown"); err != nil {
		t.Fatal(err)
	}
	counts := collect(t, c, target)
	for i := 0; i < target; i++ {
		if counts[i] != 1 {
			t.Fatalf("node %d delivered %d, want 1", i, counts[i])
		}
	}
}

func TestConnectDisconnectIdempotence(t *testing.T) {
	c := StartEmpty()
	defer c.Shutdown()
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(0, 1); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := c.Disconnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Disconnect(0, 1); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := c.Connect(0, 0); err == nil {
		t.Fatal("self link must error")
	}
	if err := c.Connect(0, 9); err == nil {
		t.Fatal("unknown node must error")
	}
}

func TestDisconnectPartitionsFlood(t *testing.T) {
	// Path 0-1-2; cutting (1,2) isolates 2 from a flood at 0.
	c := StartEmpty()
	defer c.Shutdown()
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Disconnect(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Broadcast(0, "cut"); err != nil {
		t.Fatal(err)
	}
	collect(t, c, 2) // nodes 0 and 1 only
	time.Sleep(50 * time.Millisecond)
	if len(c.Delivered(2)) != 0 {
		t.Fatal("node 2 heard through a removed link")
	}
}
