package member

import (
	"context"
	"testing"

	"lhg/internal/check"
	"lhg/internal/core"
)

func newSystem(t *testing.T, k, n int) *System {
	t.Helper()
	s, err := New(k, n, core.NewKDiamondGrowerAt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewErrors(t *testing.T) {
	if _, err := New(3, 10, nil); err == nil {
		t.Fatal("nil engine must error")
	}
	if _, err := New(3, 4, core.NewKDiamondGrowerAt); err == nil {
		t.Fatal("n < 2k must error")
	}
}

func TestJoinSequenceKeepsConsistentViews(t *testing.T) {
	s := newSystem(t, 3, 6)
	for i := 0; i < 10; i++ {
		rep, err := s.ProposeJoin()
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if rep.View.Version != i+1 || rep.View.Size != 7+i {
			t.Fatalf("join %d installed view %+v", i, rep.View)
		}
		if !s.ConsistentViews() {
			t.Fatalf("join %d left inconsistent views: %v", i, s.Views())
		}
		if rep.Applied != 6+i {
			t.Fatalf("join %d applied by %d members, want %d", i, rep.Applied, 6+i)
		}
	}
	if s.Size() != 16 {
		t.Fatalf("size = %d, want 16", s.Size())
	}
}

func TestCrashThenRepair(t *testing.T) {
	s := newSystem(t, 4, 20)
	if err := s.Crash(3, 7, 11); err != nil { // k-1 = 3 crashes
		t.Fatal(err)
	}
	if s.CrashedCount() != 3 {
		t.Fatalf("crashed = %d", s.CrashedCount())
	}
	// Application traffic still reaches every survivor pre-repair.
	res, err := s.Broadcast()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Reached != 17 {
		t.Fatalf("degraded broadcast: %v", res)
	}
	// Repair removes the dead members and rebuilds at 17.
	rep, err := s.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.View.Size != 17 || s.Size() != 17 {
		t.Fatalf("repair produced size %d (report %+v)", s.Size(), rep.View)
	}
	if !s.ConsistentViews() {
		t.Fatal("views inconsistent after repair")
	}
	if s.CrashedCount() != 0 {
		t.Fatal("crashed members must be gone after repair")
	}
	// The repaired topology is a verified LHG again.
	r, err := check.Verify(context.Background(), s.Graph(), 4, check.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsLHG() {
		t.Fatalf("repaired topology is not an LHG: %s", r)
	}
}

func TestRepairNothingToDo(t *testing.T) {
	s := newSystem(t, 3, 8)
	if _, err := s.Repair(); err == nil {
		t.Fatal("repair with no crashes must error")
	}
}

func TestCrashUnknownMember(t *testing.T) {
	s := newSystem(t, 3, 8)
	if err := s.Crash(99); err == nil {
		t.Fatal("unknown member must error")
	}
}

func TestJoinWithCrashedMembersStillConsistent(t *testing.T) {
	// Joins keep working while k-1 crashed members are still wired in.
	s := newSystem(t, 4, 16)
	if err := s.Crash(2, 9, 14); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProposeJoin()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 13 { // 16 - 3 alive
		t.Fatalf("applied by %d, want 13", rep.Applied)
	}
	if !s.ConsistentViews() {
		t.Fatal("alive views inconsistent")
	}
	// The crashed members' installed views lag behind.
	views := s.Views()
	if views[2] == s.CurrentView() {
		t.Fatal("crashed member cannot have installed the new view")
	}
}

func TestTooManyCrashesBlockViewChanges(t *testing.T) {
	// With k crashes the adversary could cut the flood; with the sequencer
	// pattern and k random-ish crashes the flood may still succeed, so
	// force a real cut: crash every neighbor of the last member.
	s := newSystem(t, 3, 12)
	g := s.Graph()
	victim := g.Order() - 1
	nbrs := g.Neighbors(victim)
	if err := s.Crash(nbrs...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProposeJoin(); err == nil {
		t.Fatal("isolated member must block the view change")
	}
}

func TestEveryMemberCrashed(t *testing.T) {
	s := newSystem(t, 3, 6)
	if err := s.Crash(0, 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Broadcast(); err == nil {
		t.Fatal("no alive sequencer must error")
	}
}

func TestRepairChurnAccounting(t *testing.T) {
	s := newSystem(t, 3, 14)
	if err := s.Crash(0, 6); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Churn.Kept+rep.Churn.Added != s.Graph().Size() {
		t.Fatalf("churn accounting: %+v vs new m=%d", rep.Churn, s.Graph().Size())
	}
}

// TestRepairIssuesDeltaSurgery is the O(changed-edges) guarantee: a crash
// repair's churn must equal, edit for edit, the net delta of an independent
// engine shrunk by the same batch — and stay bounded by O(k²) per departed
// member, independent of n. A canonical rebuild would count ~m = nk/2
// operations and fail both assertions.
func TestRepairIssuesDeltaSurgery(t *testing.T) {
	const (
		k    = 3
		n    = 60
		dead = 3
	)
	s := newSystem(t, k, n)
	if err := s.Crash(5, 17, 29); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Repair()
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same surgery on a fresh engine at the same size.
	ref, err := core.NewKDiamondGrowerAt(k, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Apply([]core.Change{core.ChangeLeave, core.ChangeLeave, core.ChangeLeave})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Churn.Added != len(want.Added) || rep.Churn.Removed != len(want.Removed) {
		t.Fatalf("repair churn %+v, want exactly added=%d removed=%d (net delta surgery)",
			rep.Churn, len(want.Added), len(want.Removed))
	}
	if got, wantDelta := rep.Delta, want; len(got.Added) != len(wantDelta.Added) ||
		len(got.Removed) != len(wantDelta.Removed) {
		t.Fatalf("report delta %v, want %v", got, wantDelta)
	}
	if bound := dead * 4 * k * k; rep.Churn.Total() > bound {
		t.Fatalf("repair issued %d edits for %d departures, exceeds O(k²) bound %d",
			rep.Churn.Total(), dead, bound)
	}
	if rep.Churn.Kept+rep.Churn.Added != s.Graph().Size() {
		t.Fatalf("churn accounting: %+v vs new m=%d", rep.Churn, s.Graph().Size())
	}
}

// TestJoinChurnIsDeltaCounts: admissions report the exact surgery too.
func TestJoinChurnIsDeltaCounts(t *testing.T) {
	const k = 3
	s := newSystem(t, k, 40)
	ref, err := core.NewKDiamondGrowerAt(k, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		rep, err := s.ProposeJoin()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Grow()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Churn.Added != len(want.Added) || rep.Churn.Removed != len(want.Removed) {
			t.Fatalf("join %d churn %+v, want added=%d removed=%d",
				i, rep.Churn, len(want.Added), len(want.Removed))
		}
	}
}

// TestRepairBelowMinimumFails: shrinking past 2k is refused up front, with
// no partial surgery applied.
func TestRepairBelowMinimumFails(t *testing.T) {
	s := newSystem(t, 3, 7) // 2k = 6: one leave is fine, two are not
	if err := s.Crash(1, 4); err != nil {
		t.Fatal(err)
	}
	before := s.Graph()
	if _, err := s.Repair(); err == nil {
		t.Fatal("repair below 2k must fail")
	}
	if s.Size() != 7 || s.Graph().Size() != before.Size() {
		t.Fatal("failed repair must not mutate the topology")
	}
}
