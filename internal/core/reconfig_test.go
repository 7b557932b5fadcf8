package core

import (
	"reflect"
	"testing"

	"lhg/internal/graph"
)

// reconfigurers enumerates the churn-engine factories for shared test
// logic, keyed by constraint name.
func reconfigurers(k int) map[string]func() (*Grower, error) {
	return map[string]func() (*Grower, error){
		"ktree":    func() (*Grower, error) { return NewKTreeGrowerAt(k, 2*k) },
		"kdiamond": func() (*Grower, error) { return NewKDiamondGrowerAt(k, 2*k) },
	}
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.Order() != b.Order() || a.Size() != b.Size() {
		return false
	}
	for v := 0; v < a.Order(); v++ {
		if !reflect.DeepEqual(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

// TestShrinkInvertsGrow: Shrink is the exact inverse of Grow — unwinding a
// growth run reproduces every intermediate graph bit-for-bit, across all
// batch-boundary phases of both state machines.
func TestShrinkInvertsGrow(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		for name, mk := range reconfigurers(k) {
			gr, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			steps := 6*k + 5 // covers several promote / form+dissolve cycles
			snaps := []*graph.Graph{gr.Graph()}
			for i := 0; i < steps; i++ {
				if _, err := gr.Grow(); err != nil {
					t.Fatalf("%s k=%d grow %d: %v", name, k, i, err)
				}
				snaps = append(snaps, gr.Graph())
			}
			for i := steps - 1; i >= 0; i-- {
				if _, err := gr.Shrink(); err != nil {
					t.Fatalf("%s k=%d shrink to n=%d: %v", name, k, gr.N()-1, err)
				}
				if !graphsEqual(gr.Graph(), snaps[i]) {
					t.Fatalf("%s k=%d: graph after shrink to n=%d differs from the grown one", name, k, gr.N())
				}
			}
		}
	}
}

// TestShrinkRestoresGrowerState: after shrinking, the grower is not just on
// the right graph but in the right STATE — growing again from any rewound
// point reproduces the pure-growth graphs exactly.
func TestShrinkRestoresGrowerState(t *testing.T) {
	k := 3
	for name, mk := range reconfigurers(k) {
		ref, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		var refSnaps []*graph.Graph
		for i := 0; i < 30; i++ {
			if _, err := ref.Grow(); err != nil {
				t.Fatal(err)
			}
			refSnaps = append(refSnaps, ref.Graph())
		}
		gr, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := gr.Grow(); err != nil {
				t.Fatal(err)
			}
		}
		// Rewind 13 steps, then replay: every regrown graph must match.
		for i := 0; i < 13; i++ {
			if _, err := gr.Shrink(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 17; i < 30; i++ {
			if _, err := gr.Grow(); err != nil {
				t.Fatal(err)
			}
			if !graphsEqual(gr.Graph(), refSnaps[i]) {
				t.Fatalf("%s: regrown graph at n=%d differs from pure growth", name, gr.N())
			}
		}
	}
}

// TestShrinkDeltaMatchesGraph: replaying each shrink delta through
// graph.ApplyDelta (with the reduced node count) reproduces the grower's
// own view — the integration contract the serve and member layers rely on.
func TestShrinkDeltaMatchesGraph(t *testing.T) {
	for name, mk := range reconfigurers(4) {
		gr, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			if _, err := gr.Grow(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 25; i++ {
			prev := gr.Graph()
			d, err := gr.Shrink()
			if err != nil {
				t.Fatal(err)
			}
			patched, err := prev.ApplyDelta(d, gr.N())
			if err != nil {
				t.Fatalf("%s shrink %d: ApplyDelta: %v", name, i, err)
			}
			if !graphsEqual(patched, gr.Graph()) {
				t.Fatalf("%s shrink %d: patched view differs from grower", name, i)
			}
		}
	}
}

// TestGrowDeltaAppliesViaApplyDelta mirrors the above for admissions: the
// grow delta names the new top label, so ApplyDelta with n+1 must land on
// the grower's graph.
func TestGrowDeltaAppliesViaApplyDelta(t *testing.T) {
	for name, mk := range reconfigurers(3) {
		gr, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			prev := gr.Graph()
			d, err := gr.Grow()
			if err != nil {
				t.Fatal(err)
			}
			patched, err := prev.ApplyDelta(d, gr.N())
			if err != nil {
				t.Fatalf("%s grow %d: ApplyDelta: %v", name, i, err)
			}
			if !graphsEqual(patched, gr.Graph()) {
				t.Fatalf("%s grow %d: patched view differs from grower", name, i)
			}
		}
	}
}

// TestShrinkBelowMinimumFails: the minimal graph 2k cannot absorb a leave.
func TestShrinkBelowMinimumFails(t *testing.T) {
	for name, mk := range reconfigurers(3) {
		gr, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gr.Shrink(); err == nil {
			t.Fatalf("%s: shrink below 2k must fail", name)
		}
		// One join must make exactly one leave legal again.
		if _, err := gr.Grow(); err != nil {
			t.Fatal(err)
		}
		if _, err := gr.Shrink(); err != nil {
			t.Fatalf("%s: shrink after grow: %v", name, err)
		}
		if _, err := gr.Shrink(); err == nil {
			t.Fatalf("%s: second shrink must fail at the minimum", name)
		}
	}
}

// TestDeltasAreCanonical: every delta from Grow and Shrink arrives sorted
// by (U,V) with U < V and no duplicates — the byte-determinism contract of
// the lhgrow JSON lines and the /v1/reconfigure diffs.
func TestDeltasAreCanonical(t *testing.T) {
	assertCanonical := func(t *testing.T, es []graph.Edge, what string, step int) {
		t.Helper()
		for i, e := range es {
			if e.U >= e.V {
				t.Fatalf("step %d: %s edge %v not oriented U<V", step, what, e)
			}
			if i > 0 && !(es[i-1].U < e.U || (es[i-1].U == e.U && es[i-1].V < e.V)) {
				t.Fatalf("step %d: %s edges not strictly sorted at %d: %v", step, what, i, es)
			}
		}
	}
	for name, mk := range reconfigurers(4) {
		gr, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			d, err := gr.Grow()
			if err != nil {
				t.Fatal(err)
			}
			assertCanonical(t, d.Added, name+" grow added", i)
			assertCanonical(t, d.Removed, name+" grow removed", i)
		}
		for i := 0; i < 30; i++ {
			d, err := gr.Shrink()
			if err != nil {
				t.Fatal(err)
			}
			assertCanonical(t, d.Added, name+" shrink added", i)
			assertCanonical(t, d.Removed, name+" shrink removed", i)
		}
	}
}

// TestApplyBatchNetDelta: Apply merges a batch into its NET surgery — the
// merged delta lands on the final graph via one ApplyDelta, even when the
// batch crosses additions and removals of the same edge multiple times.
func TestApplyBatchNetDelta(t *testing.T) {
	batches := [][]Change{
		{ChangeJoin, ChangeJoin, ChangeJoin},
		{ChangeJoin, ChangeLeave, ChangeJoin},                          // add→remove→add survives
		{ChangeJoin, ChangeJoin, ChangeLeave, ChangeLeave, ChangeJoin}, // rewind past a boundary
		{ChangeLeave, ChangeJoin},                                      // leave first
		{ChangeJoin, ChangeJoin, ChangeJoin, ChangeJoin, ChangeJoin, ChangeLeave},
	}
	for name, mk := range reconfigurers(3) {
		gr, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		// Start away from the minimum so leading leaves are legal.
		for i := 0; i < 8; i++ {
			if _, err := gr.Grow(); err != nil {
				t.Fatal(err)
			}
		}
		for bi, batch := range batches {
			prev := gr.Graph()
			d, err := gr.Apply(batch)
			if err != nil {
				t.Fatalf("%s batch %d: %v", name, bi, err)
			}
			patched, err := prev.ApplyDelta(d, gr.N())
			if err != nil {
				t.Fatalf("%s batch %d: net delta does not apply: %v", name, bi, err)
			}
			if !graphsEqual(patched, gr.Graph()) {
				t.Fatalf("%s batch %d: net delta misses the final graph", name, bi)
			}
		}
	}
}

// TestApplyStopsAtError: a batch that underflows the minimal size returns
// the delta of the completed prefix along with the error.
func TestApplyStopsAtError(t *testing.T) {
	gr, err := NewKTreeGrowerAt(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	prev := gr.Graph()
	d, err := gr.Apply([]Change{ChangeJoin, ChangeLeave, ChangeLeave})
	if err == nil {
		t.Fatal("underflow batch must error")
	}
	patched, aerr := prev.ApplyDelta(d, gr.N())
	if aerr != nil {
		t.Fatalf("prefix delta does not apply: %v", aerr)
	}
	if !graphsEqual(patched, gr.Graph()) {
		t.Fatal("prefix delta misses the partial graph")
	}
}

// TestNewGrowerAtMatchesStepwise: the fast-forward constructors land in the
// exact state of a step-by-step grower.
func TestNewGrowerAtMatchesStepwise(t *testing.T) {
	k := 3
	for n := 2 * k; n <= 2*k+15; n++ {
		at, err := NewKTreeGrowerAt(k, n)
		if err != nil {
			t.Fatal(err)
		}
		step, err := NewKTreeGrowerAt(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		for step.N() < n {
			if _, err := step.Grow(); err != nil {
				t.Fatal(err)
			}
		}
		if !graphsEqual(at.Graph(), step.Graph()) {
			t.Fatalf("K-TREE At(%d) differs from stepwise", n)
		}
		dat, err := NewKDiamondGrowerAt(k, n)
		if err != nil {
			t.Fatal(err)
		}
		dstep, err := NewKDiamondGrowerAt(k, 2*k)
		if err != nil {
			t.Fatal(err)
		}
		for dstep.N() < n {
			if _, err := dstep.Grow(); err != nil {
				t.Fatal(err)
			}
		}
		if !graphsEqual(dat.Graph(), dstep.Graph()) {
			t.Fatalf("K-DIAMOND At(%d) differs from stepwise", n)
		}
	}
	if _, err := NewKTreeGrowerAt(3, 5); err == nil {
		t.Fatal("n < 2k must be rejected")
	}
}
