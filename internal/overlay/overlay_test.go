package overlay

import (
	"context"
	"testing"

	"lhg/internal/check"
	"lhg/internal/core"
	"lhg/internal/flood"
	"lhg/internal/graph"
	"lhg/internal/harary"
)

func ktreeTopology(n, k int) (*graph.Graph, error) {
	kt, err := core.BuildKTree(n, k)
	if err != nil {
		return nil, err
	}
	return kt.Real.Graph, nil
}

func kdiamondTopology(n, k int) (*graph.Graph, error) {
	kd, err := core.BuildKDiamond(n, k)
	if err != nil {
		return nil, err
	}
	return kd.Real.Graph, nil
}

func TestNewRejectsNilTopology(t *testing.T) {
	if _, err := New(3, 10, nil); err == nil {
		t.Fatal("nil topology must be rejected")
	}
}

func TestNewRejectsImpossibleSize(t *testing.T) {
	if _, err := New(3, 5, ktreeTopology); err == nil {
		t.Fatal("n=5 < 2k=6 must fail")
	}
}

func TestJoinGrowsAndStaysLHG(t *testing.T) {
	o, err := New(3, 6, kdiamondTopology)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := o.Join(); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if o.Size() != 16 {
		t.Fatalf("Size = %d, want 16", o.Size())
	}
	r, err := check.Verify(context.Background(), o.Graph(), 3, check.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsLHG() {
		t.Fatalf("overlay topology is not an LHG after churn: %s", r)
	}
}

func TestLeaveShrinks(t *testing.T) {
	o, err := New(3, 10, ktreeTopology)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Leave(); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 9 {
		t.Fatalf("Size = %d, want 9", o.Size())
	}
	// Shrinking below 2k must fail and leave the overlay unchanged.
	if _, err := o.resize(5); err == nil {
		t.Fatal("resize below 2k must fail")
	}
	if o.Size() != 9 {
		t.Fatalf("failed resize changed the size to %d", o.Size())
	}
}

func TestChurnAccounting(t *testing.T) {
	o, err := New(3, 12, ktreeTopology)
	if err != nil {
		t.Fatal(err)
	}
	before := o.Graph()
	c, err := o.Join()
	if err != nil {
		t.Fatal(err)
	}
	after := o.Graph()
	if c.Kept+c.Removed != before.Size() {
		t.Fatalf("kept %d + removed %d != old size %d", c.Kept, c.Removed, before.Size())
	}
	if c.Kept+c.Added != after.Size() {
		t.Fatalf("kept %d + added %d != new size %d", c.Kept, c.Added, after.Size())
	}
	if c.Total() != c.Added+c.Removed {
		t.Fatalf("Total = %d, want %d", c.Total(), c.Added+c.Removed)
	}
}

func TestChurnZeroOnNoopResize(t *testing.T) {
	o, err := New(3, 12, ktreeTopology)
	if err != nil {
		t.Fatal(err)
	}
	c, err := o.resize(12)
	if err != nil {
		t.Fatal(err)
	}
	if c.Added != 0 || c.Removed != 0 {
		t.Fatalf("rebuilding the same size churned: %+v", c)
	}
}

func TestBroadcastOnOverlay(t *testing.T) {
	o, err := New(4, 20, kdiamondTopology)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Broadcast(0, flood.Failures{Nodes: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("4-connected overlay must survive 3 failures: %s", res)
	}
}

func TestOverlayAccessors(t *testing.T) {
	o, err := New(3, 8, ktreeTopology)
	if err != nil {
		t.Fatal(err)
	}
	if o.K() != 3 {
		t.Fatalf("K = %d, want 3", o.K())
	}
	size := o.Graph().Size()
	b := o.Graph().Thaw()
	e := o.Graph().Edges()[0]
	b.RemoveEdge(e.U, e.V)
	if b.Freeze().Size() != size-1 || o.Graph().Size() != size {
		t.Fatal("mutating a thawed copy must not affect the overlay's frozen view")
	}
}

func TestHararyOverlayWorksToo(t *testing.T) {
	o, err := New(3, 9, harary.Build)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Join(); err != nil {
		t.Fatal(err)
	}
	res, err := o.Broadcast(2, flood.Failures{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("harary broadcast incomplete: %s", res)
	}
}
