package check

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"lhg/internal/graph"
)

func bipartite(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bld.MustAddEdge(u, v)
		}
	}
	return bld.Freeze()
}

// TestVerifyCtxCancelsPromptly: a full verification campaign on a dense
// graph takes seconds; cancellation must surface within the 100ms
// regression bound, with the serial and the parallel driver alike.
func TestVerifyCtxCancelsPromptly(t *testing.T) {
	g := bipartite(110, 110)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		canceledAt := make(chan time.Time, 1)
		go func() {
			time.Sleep(30 * time.Millisecond)
			canceledAt <- time.Now()
			cancel()
		}()
		_, err := Verify(ctx, g, 3, Options{Workers: workers})
		overstay := time.Since(<-canceledAt)
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: campaign finished before the cancel signal; grow the fixture", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if overstay > 100*time.Millisecond {
			t.Fatalf("workers=%d: Verify returned %v after cancellation, want <= 100ms", workers, overstay)
		}
	}
}

func TestVerifyCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Verify(ctx, complete(8), 3, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Verify: err = %v, want context.Canceled", err)
	}
}

// TestVerifyCtxCorrectAfterCancellation: a canceled campaign must not
// poison the pooled networks or scratch state used by the next one.
func TestVerifyCtxCorrectAfterCancellation(t *testing.T) {
	big := bipartite(90, 90)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := Verify(ctx, big, 3, Options{Workers: 4}); err == nil {
		t.Fatal("campaign finished before the cancel signal; grow the fixture")
	}
	cancel()

	clean, err := Verify(context.Background(), complete(6), 5, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Verify(context.Background(), complete(6), 5, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	clean.Phases, after.Phases = nil, nil
	clean.Workers, after.Workers = 0, 0
	if !reflect.DeepEqual(clean, after) {
		t.Fatalf("post-cancellation report diverged:\nserial: %+v\nafter cancel: %+v", clean, after)
	}
}

// TestVerifyCtxPropertySelection: unrequested properties stay at their zero
// values and Checked records exactly what ran.
func TestVerifyCtxPropertySelection(t *testing.T) {
	g := complete(6)
	r, err := Verify(context.Background(), g, 5, Options{Props: PropNodeConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	if r.Checked != PropNodeConnectivity {
		t.Fatalf("Checked = %v, want %v", r.Checked, PropNodeConnectivity)
	}
	if !r.KNodeConnected || r.NodeConnectivity != 5 {
		t.Fatalf("P1 on K_6: κ = %d, connected %t", r.NodeConnectivity, r.KNodeConnected)
	}
	if r.EdgeConnectivity != 0 || r.KLinkConnected || r.LinkMinimal || r.LogDiameter {
		t.Fatalf("unchecked properties must stay zero: %+v", r)
	}

	// P3 pulls in P1 and P2: minimality is meaningless without the exact
	// connectivities to compare against.
	r3, err := Verify(context.Background(), g, 5, Options{Props: PropLinkMinimality})
	if err != nil {
		t.Fatal(err)
	}
	want := PropNodeConnectivity | PropLinkConnectivity | PropLinkMinimality
	if r3.Checked != want {
		t.Fatalf("Checked = %v, want %v (P3 implies P1|P2)", r3.Checked, want)
	}
}
