package flood

import (
	"testing"

	"lhg/internal/harary"
	"lhg/internal/sim"
)

func TestRandomNodeFailuresNeverHitSource(t *testing.T) {
	g := cycle(12)
	rng := sim.NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		f, err := RandomNodeFailures(g, 5, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Nodes) != 4 {
			t.Fatalf("drew %d failures, want 4", len(f.Nodes))
		}
		seen := map[int]bool{}
		for _, v := range f.Nodes {
			if v == 5 {
				t.Fatal("source crashed")
			}
			if seen[v] {
				t.Fatal("duplicate failure")
			}
			seen[v] = true
		}
	}
}

func TestRandomNodeFailuresErrors(t *testing.T) {
	g := cycle(5)
	rng := sim.NewRNG(1)
	if _, err := RandomNodeFailures(g, 0, 5, rng); err == nil {
		t.Fatal("failing all nodes must error")
	}
	if _, err := RandomNodeFailures(g, 0, -1, rng); err == nil {
		t.Fatal("negative failure count must error")
	}
}

func TestRandomLinkFailures(t *testing.T) {
	g := cycle(10)
	rng := sim.NewRNG(2)
	f, err := RandomLinkFailures(g, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Links) != 3 {
		t.Fatalf("drew %d link failures, want 3", len(f.Links))
	}
	for _, e := range f.Links {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("failed link %v does not exist", e)
		}
	}
	if _, err := RandomLinkFailures(g, 11, rng); err == nil {
		t.Fatal("failing more links than exist must error")
	}
}

func TestAdversarialBelowKCannotPartition(t *testing.T) {
	// On a 4-connected Harary graph, any 3 adversarial failures leave the
	// flood complete.
	g, err := harary.Build(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f <= 3; f++ {
		fails, err := AdversarialNodeFailures(g, 0, f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, 0, fails)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("f=%d adversarial failures partitioned a 4-connected graph: %s", f, res)
		}
	}
}

func TestAdversarialAtKPartitions(t *testing.T) {
	// With f = κ failures the adversary finds a real cut and the flood
	// misses somebody.
	g, err := harary.Build(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	fails, err := AdversarialNodeFailures(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, fails)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatalf("adversary failed to cut a 4-connected graph with 4 failures: %s", res)
	}
}

func TestAdversarialZeroFailures(t *testing.T) {
	g := cycle(6)
	f, err := AdversarialNodeFailures(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Nodes) != 0 {
		t.Fatalf("f=0 returned %v", f.Nodes)
	}
}

func TestAdversarialErrors(t *testing.T) {
	g := cycle(5)
	if _, err := AdversarialNodeFailures(g, 0, 5); err == nil {
		t.Fatal("failing all nodes must error")
	}
}

func TestReliabilityPerfectBelowK(t *testing.T) {
	g, err := harary.Build(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	for f := 0; f <= 2; f++ {
		rel, err := Reliability(g, 0, f, 60, rng)
		if err != nil {
			t.Fatal(err)
		}
		if rel != 1.0 {
			t.Fatalf("reliability at f=%d is %v, want 1.0 (graph is 3-connected)", f, rel)
		}
	}
}

func TestReliabilityDegradesOnFragileGraph(t *testing.T) {
	// A star dies whenever the hub is among the failures.
	g := star(10)
	rng := sim.NewRNG(11)
	rel, err := Reliability(g, 1, 1, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The single failure hits the hub with probability 1/9.
	if rel > 0.99 || rel < 0.7 {
		t.Fatalf("star reliability = %v, want roughly 8/9", rel)
	}
}

func TestReliabilityErrors(t *testing.T) {
	g := cycle(5)
	if _, err := Reliability(g, 0, 1, 0, sim.NewRNG(1)); err == nil {
		t.Fatal("zero trials must error")
	}
}

func TestAdversarialLinkFailuresBelowLambda(t *testing.T) {
	g, err := harary.Build(18, 4)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f <= 3; f++ {
		fails, err := AdversarialLinkFailures(g, 0, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(fails.Links) != f {
			t.Fatalf("drew %d link failures, want %d", len(fails.Links), f)
		}
		res, err := Run(g, 0, fails)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("f=%d link failures cut a 4-link-connected graph: %s", f, res)
		}
	}
}

func TestAdversarialLinkFailuresAtLambda(t *testing.T) {
	g, err := harary.Build(18, 4)
	if err != nil {
		t.Fatal(err)
	}
	fails, err := AdversarialLinkFailures(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, fails)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatalf("an actual minimum edge cut must partition the flood: %s", res)
	}
}

func TestAdversarialLinkFailuresErrors(t *testing.T) {
	g := cycle(5)
	if _, err := AdversarialLinkFailures(g, 0, 99); err == nil {
		t.Fatal("failing more links than exist must error")
	}
	f, err := AdversarialLinkFailures(g, 0, 0)
	if err != nil || len(f.Links) != 0 {
		t.Fatalf("f=0 must be a no-op: %v %v", f, err)
	}
}
