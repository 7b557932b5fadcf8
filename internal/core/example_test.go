package core_test

import (
	"fmt"
	"log"

	"lhg/internal/core"
)

// ExampleBuildKTree shows the decomposition the canonical builder chooses.
func ExampleBuildKTree() {
	kt, err := core.BuildKTree(21, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=%d k=%d alpha=%d j=%d positions=%d height=%d\n",
		kt.N, kt.K, kt.Alpha, kt.J, kt.Blue.Positions(), kt.Blue.Height())
	// Output: n=21 k=3 alpha=3 j=3 positions=13 height=2
}

// ExampleBuildKDiamond shows an odd-α instance with an unshared clique.
func ExampleBuildKDiamond() {
	kd, err := core.BuildKDiamond(8, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unshared groups: %d, regular: %t\n",
		kd.Blue.UnsharedLeaves(), kd.Real.Graph.IsRegular(3))
	// Output: unshared groups: 1, regular: true
}

// ExampleExistsJD shows the (9,3) gap from §4.4: the Jenkins–Demers rule
// cannot reach it, the K-TREE constraint can.
func ExampleExistsJD() {
	fmt.Println(core.ExistsJD(9, 3), core.ExistsKTree(9, 3))
	// Output: false true
}

// ExampleNewKTreeGrowerAt admits two nodes incrementally.
func ExampleNewKTreeGrowerAt() {
	gr, err := core.NewKTreeGrowerAt(3, 6)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		delta, err := gr.Grow()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("n=%d links+%d links-%d\n", gr.N(), len(delta.Added), len(delta.Removed))
	}
	// Output:
	// n=7 links+3 links-0
	// n=8 links+3 links-0
}

// ExampleNewRouter routes between two tree copies via a shared leaf.
func ExampleNewRouter() {
	kt, err := core.BuildKTree(10, 3)
	if err != nil {
		log.Fatal(err)
	}
	router, err := core.NewRouter(kt.Blue, kt.Real)
	if err != nil {
		log.Fatal(err)
	}
	path, err := router.Route(0, 2) // root copy 0 -> root copy 2
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range path {
		if i > 0 {
			fmt.Print(" -> ")
		}
		fmt.Print(kt.Real.Labels[v])
	}
	fmt.Println()
	// Output: R0 -> N1.0 -> L4 -> N1.2 -> R2
}
