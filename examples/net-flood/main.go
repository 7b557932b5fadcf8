// Real-network flooding: wires an LHG topology with actual TCP connections
// on the loopback interface (one goroutine-per-node process, one socket per
// topology edge, length-prefixed frames, duplicate suppression) and floods
// a message through it — the deployment shape of the paper's protocol.
//
//	go run ./examples/net-flood
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"lhg"
	"lhg/internal/netflood"
)

func main() {
	const (
		n = 30
		k = 3
	)
	g, err := lhg.Build(context.Background(), lhg.KDiamond, n, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: K-DIAMOND(%d,%d), %d TCP links, diameter %d\n", n, k, g.Size(), g.Diameter())

	cluster, err := netflood.Start(g)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()

	start := time.Now()
	msg, err := cluster.Broadcast(0, "hello from node 0")
	if err != nil {
		log.Fatal(err)
	}

	// Wait for every node to deliver.
	deadline := time.After(10 * time.Second)
	delivered := 0
	for delivered < n {
		select {
		case m := <-cluster.Deliveries():
			delivered++
			// Hops varies with each node's distance from the source; the
			// identity fields must match the broadcast exactly.
			if m.Src != msg.Src || m.Seq != msg.Seq || m.Payload != msg.Payload {
				log.Fatalf("unexpected delivery %+v", m)
			}
		case <-deadline:
			log.Fatalf("timed out with %d of %d deliveries", delivered, n)
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("message %v delivered by all %d nodes in %s\n", msg.Seq, n, elapsed.Round(time.Microsecond))
	for _, id := range []int{0, n / 2, n - 1} {
		msgs := cluster.Delivered(id)
		fmt.Printf("  node %2d delivered %d message(s): %q\n", id, len(msgs), msgs[0].Payload)
	}
	fmt.Println("every process received exactly one copy (duplicate suppression over real sockets)")

	// Part 2: live growth. Admit five more processes one at a time by
	// applying the incremental grower's link surgery to the running
	// sockets, then flood again.
	fmt.Println("\nlive growth: admitting 5 more processes via grower deltas on live connections")
	gr, err := lhg.NewKDiamondGrowerAt(k, 2*k)
	if err != nil {
		log.Fatal(err)
	}
	grown := netflood.StartEmpty()
	for i := 0; i < gr.N(); i++ {
		if _, err := grown.AddNode(); err != nil {
			log.Fatal(err)
		}
	}
	defer grown.Shutdown()
	for _, e := range gr.Graph().Edges() {
		if err := grown.Connect(e.U, e.V); err != nil {
			log.Fatal(err)
		}
	}
	for step := 0; step < 5; step++ {
		if _, err := grown.AddNode(); err != nil {
			log.Fatal(err)
		}
		delta, err := gr.Grow()
		if err != nil {
			log.Fatal(err)
		}
		if err := grown.Apply(delta); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  join -> n=%d (%d links dialed, %d torn down)\n",
			grown.Size(), len(delta.Added), len(delta.Removed))
	}
	if _, err := grown.Broadcast(grown.Size()-1, "from the newest member"); err != nil {
		log.Fatal(err)
	}
	want := grown.Size()
	deadline = time.After(10 * time.Second)
	for got := 0; got < want; {
		select {
		case <-grown.Deliveries():
			got++
		case <-deadline:
			log.Fatalf("grown cluster delivered %d of %d", got, want)
		}
	}
	fmt.Printf("broadcast from the newest member reached all %d processes\n", want)
}
