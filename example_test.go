package lhg_test

import (
	"context"
	"fmt"
	"log"

	"lhg"
)

// ExampleBuild constructs a K-DIAMOND LHG and prints its shape.
func ExampleBuild() {
	g, err := lhg.Build(context.Background(), lhg.KDiamond, 14, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g)
	// Output: graph(n=14, m=21, degmin=3, degmax=3)
}

// ExampleVerify proves every LHG property of a built graph.
func ExampleVerify() {
	g, err := lhg.Build(context.Background(), lhg.KTree, 10, 3)
	if err != nil {
		log.Fatal(err)
	}
	report, err := lhg.Verify(context.Background(), g, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.IsLHG(), report.Regular, report.NodeConnectivity)
	// Output: true true 3
}

// ExampleFlood shows delivery despite k-1 crashed nodes.
func ExampleFlood() {
	g, err := lhg.Build(context.Background(), lhg.KDiamond, 20, 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := lhg.Flood(context.Background(), g, 0, lhg.WithFailures(lhg.Failures{Nodes: []int{4, 9}}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Complete, res.Reached, res.Alive)
	// Output: true 18 18
}

// ExampleExists evaluates the closed-form characteristic functions from
// Theorems 2 and 5 and the Jenkins–Demers gap at (9,3).
func ExampleExists() {
	fmt.Println(lhg.Exists(lhg.KTree, 9, 3))
	fmt.Println(lhg.Exists(lhg.KDiamond, 9, 3))
	fmt.Println(lhg.Exists(lhg.JD, 9, 3))
	// Output:
	// true
	// true
	// false
}

// ExampleRegular contrasts the regular grids of Theorems 3 and 6: at
// n = 8, k = 3 (odd α) only K-DIAMOND admits a 3-regular LHG.
func ExampleRegular() {
	fmt.Println(lhg.Regular(lhg.KTree, 8, 3))
	fmt.Println(lhg.Regular(lhg.KDiamond, 8, 3))
	// Output:
	// false
	// true
}

// ExampleNewKDiamondGrowerAt grows an overlay one node at a time; the
// topology is a valid LHG after every step.
func ExampleNewKDiamondGrowerAt() {
	gr, err := lhg.NewKDiamondGrowerAt(3, 6)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		delta, err := gr.Grow()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("n=%d churn=%d regular=%t\n",
			gr.N(), delta.Total(), gr.Graph().IsRegular(3))
	}
	// Output:
	// n=7 churn=3 regular=false
	// n=8 churn=8 regular=true
	// n=9 churn=3 regular=false
	// n=10 churn=12 regular=true
}
