// Incremental growth: runs the constructive procedures inside the proofs
// of Theorems 2 and 5 as a live overlay. One node joins per step; the
// grower performs O(k²) edge surgery (independent of the current size) and
// the topology is a valid LHG after every single admission — no rebuild,
// no downtime, stable node ids.
//
//	go run ./examples/incremental-growth
package main

import (
	"context"
	"fmt"
	"log"

	"lhg"
)

func main() {
	const k = 4

	gr, err := lhg.NewKDiamondGrowerAt(k, 2*k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("growing a K-DIAMOND(%d) overlay from n=%d, one join at a time\n\n", k, gr.N())
	fmt.Printf("%-6s %-8s %-10s %-10s %-10s %-8s\n",
		"n", "edges", "+links", "-links", "regular", "diam")

	maxChurn := 0
	for gr.N() < 120 {
		delta, err := gr.Grow()
		if err != nil {
			log.Fatal(err)
		}
		if delta.Total() > maxChurn {
			maxChurn = delta.Total()
		}
		g := gr.Graph()
		n := g.Order()

		// Print the interesting steps: the first few and every regular hit.
		regular := g.IsRegular(k)
		if n <= 12 || regular && n%20 < 2 || n == 120 {
			fmt.Printf("%-6d %-8d %-10d %-10d %-10t %-8d\n",
				n, g.Size(), len(delta.Added), len(delta.Removed), regular, g.Diameter())
		}

		// The theorem grids hold at every step.
		if regular != lhg.Regular(lhg.KDiamond, n, k) {
			log.Fatalf("n=%d: regularity disagrees with Theorem 6", n)
		}
	}

	g := gr.Graph()
	report, err := lhg.Verify(context.Background(), g, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter 112 joins: %v\n", report)
	if !report.IsLHG() {
		log.Fatal("grown topology failed verification")
	}
	fmt.Printf("worst-case churn over the whole run: %d link operations (bounded by O(k²), not n)\n", maxChurn)
}
