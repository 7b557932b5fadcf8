package overlay

import (
	"context"
	"testing"

	"lhg/internal/check"
	"lhg/internal/core"
	"lhg/internal/flood"
)

func TestNewIncrementalRejectsNil(t *testing.T) {
	if _, err := NewIncremental(nil); err == nil {
		t.Fatal("nil grower must be rejected")
	}
}

func TestIncrementalJoinAccounting(t *testing.T) {
	gr, err := core.NewKTreeGrowerAt(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewIncremental(gr)
	if err != nil {
		t.Fatal(err)
	}
	if o.Size() != 6 || o.K() != 3 {
		t.Fatalf("initial size/k = %d/%d, want 6/3", o.Size(), o.K())
	}
	for i := 0; i < 20; i++ {
		c, err := o.Join()
		if err != nil {
			t.Fatal(err)
		}
		if c.Kept+c.Added != o.Graph().Size() {
			t.Fatalf("join %d: kept %d + added %d != edges %d",
				i, c.Kept, c.Added, o.Graph().Size())
		}
	}
	if o.Size() != 26 {
		t.Fatalf("size = %d, want 26", o.Size())
	}
}

func TestIncrementalChurnBeatsRebuildAtScale(t *testing.T) {
	// Push both maintenance modes to n=120 and compare the final-join
	// churn: incremental stays O(k²), rebuild relabels a chunk of the
	// graph.
	k := 3
	gr, err := core.NewKDiamondGrowerAt(k, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(gr)
	if err != nil {
		t.Fatal(err)
	}
	reb, err := New(k, 2*k, kdiamondTopology)
	if err != nil {
		t.Fatal(err)
	}
	var lastInc, totalReb, totalInc int
	for inc.Size() < 120 {
		ci, err := inc.Join()
		if err != nil {
			t.Fatal(err)
		}
		cr, err := reb.Join()
		if err != nil {
			t.Fatal(err)
		}
		lastInc = ci.Total()
		totalInc += ci.Total()
		totalReb += cr.Total()
	}
	if lastInc > 3*k*k {
		t.Fatalf("incremental churn %d exceeds O(k²)", lastInc)
	}
	if totalInc >= totalReb {
		t.Fatalf("incremental total churn %d should beat rebuild %d", totalInc, totalReb)
	}
}

func TestIncrementalBroadcastSurvivesFailures(t *testing.T) {
	gr, err := core.NewKDiamondGrowerAt(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewIncremental(gr)
	if err != nil {
		t.Fatal(err)
	}
	for o.Size() < 30 {
		if _, err := o.Join(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := o.Broadcast(0, flood.Failures{Nodes: []int{5, 11, 17}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("grown 4-connected overlay must survive 3 crashes: %s", res)
	}
}

func TestIncrementalStaysLHGUnderLongGrowth(t *testing.T) {
	gr, err := core.NewKTreeGrowerAt(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewIncremental(gr)
	if err != nil {
		t.Fatal(err)
	}
	for o.Size() < 80 {
		if _, err := o.Join(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := check.Verify(context.Background(), o.Graph(), 3, check.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsLHG() {
		t.Fatalf("grown overlay is not an LHG: %s", r)
	}
}
