package overlay

import (
	"testing"

	"lhg/internal/core"
)

// TestIncrementalLeaveChurn: a leave undoes the last join edit for edit, so
// its churn mirrors the join's with added/removed swapped.
func TestIncrementalLeaveChurn(t *testing.T) {
	gr, err := core.NewKTreeGrowerAt(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewIncremental(gr)
	if err != nil {
		t.Fatal(err)
	}
	join, err := o.Join()
	if err != nil {
		t.Fatal(err)
	}
	leave, err := o.Leave()
	if err != nil {
		t.Fatal(err)
	}
	if leave.Added != join.Removed || leave.Removed != join.Added {
		t.Fatalf("leave churn %+v does not invert join churn %+v", leave, join)
	}
	if o.Size() != 20 {
		t.Fatalf("size=%d after join+leave", o.Size())
	}
}

// TestIncrementalApplyNetChurn: a batch reports the net edit counts — a
// join+leave round trip nets to zero operations.
func TestIncrementalApplyNetChurn(t *testing.T) {
	gr, err := core.NewKDiamondGrowerAt(4, 30)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewIncremental(gr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := o.Apply([]core.Change{core.ChangeJoin, core.ChangeLeave})
	if err != nil {
		t.Fatal(err)
	}
	if c.Added != 0 || c.Removed != 0 {
		t.Fatalf("round-trip batch churn %+v, want net zero", c)
	}
	c, err = o.Apply([]core.Change{core.ChangeJoin, core.ChangeJoin, core.ChangeLeave})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() == 0 || o.Size() != 31 {
		t.Fatalf("net-growth batch churn %+v size %d", c, o.Size())
	}
	// Leaves at the floor fail and report the completed prefix.
	floor, err := core.NewKTreeGrowerAt(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	of, err := NewIncremental(floor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := of.Apply([]core.Change{core.ChangeLeave}); err == nil {
		t.Fatal("leave at the 2k floor must fail")
	}
}
