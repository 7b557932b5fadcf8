package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	val := json.RawMessage(`{"is_lhg":true,"n":21}`)
	if err := s.Put("verify|ktree|n=21", "verify", val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("verify|ktree|n=21")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%t err=%v", ok, err)
	}
	if string(got) != string(val) {
		t.Fatalf("Get = %s, want %s", got, val)
	}
	if _, ok, _ := s.Get("verify|ktree|n=22"); ok {
		t.Fatal("unknown key must miss")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestReopenReplaysIndex(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir)
	for _, k := range []string{"a", "b", "c"} {
		if err := s1.Put(k, "verify", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", s2.Len())
	}
	for _, k := range []string{"a", "b", "c"} {
		if !s2.Contains(k) {
			t.Fatalf("reopened index lost %q", k)
		}
		if _, ok, err := s2.Get(k); !ok || err != nil {
			t.Fatalf("reopened Get(%q): ok=%t err=%v", k, ok, err)
		}
	}
}

// TestCrossInstanceVisibility is the fleet-sharing property: a write through
// one handle is readable through another handle opened BEFORE the write —
// the index is an optimization, not the source of truth.
func TestCrossInstanceVisibility(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	if err := a.Put("k", "verify", json.RawMessage(`"v"`)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get("k")
	if err != nil || !ok {
		t.Fatalf("sibling Get: ok=%t err=%v", ok, err)
	}
	if string(got) != `"v"` {
		t.Fatalf("sibling Get = %s", got)
	}
}

func TestKeyMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	// Forge an entry whose content hash does not match its recorded key.
	env, _ := json.Marshal(Envelope{Key: "other", Kind: "verify", Value: json.RawMessage(`1`)})
	if err := os.WriteFile(filepath.Join(dir, Key("mine")+".json"), env, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("mine"); err == nil || !strings.Contains(err.Error(), "holds key") {
		t.Fatalf("forged entry must error, got %v", err)
	}
}

func TestPutLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 10; i++ {
		if err := s.Put("k", "verify", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("dir holds %v, want exactly one entry", names)
	}
}

// --- leases ----------------------------------------------------------------

func TestLeaseExclusive(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir) // second process in miniature
	la, ok, err := a.Acquire("k", time.Minute)
	if err != nil || !ok {
		t.Fatalf("first Acquire: ok=%t err=%v", ok, err)
	}
	if _, ok, err := b.Acquire("k", time.Minute); ok || err != nil {
		t.Fatalf("second Acquire while held: ok=%t err=%v, want false/nil", ok, err)
	}
	la.Release()
	if _, ok, err := b.Acquire("k", time.Minute); !ok || err != nil {
		t.Fatalf("Acquire after release: ok=%t err=%v", ok, err)
	}
}

func TestLeaseTakeoverAfterExpiry(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	if _, ok, _ := a.Acquire("k", time.Millisecond); !ok {
		t.Fatal("first Acquire failed")
	}
	time.Sleep(5 * time.Millisecond)
	// The holder is "crashed": its claim expired and must be taken over.
	lb, ok, err := b.Acquire("k", time.Minute)
	if err != nil || !ok {
		t.Fatalf("takeover Acquire: ok=%t err=%v", ok, err)
	}
	lb.Release()
}

func TestStaleReleaseDoesNotStealNewLease(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	la, _, _ := a.Acquire("k", time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if _, ok, _ := b.Acquire("k", time.Minute); !ok {
		t.Fatal("takeover failed")
	}
	la.Release() // expired claim: must NOT remove b's live lease
	if _, ok, _ := a.Acquire("k", time.Minute); ok {
		t.Fatal("b's lease was stolen by a stale Release")
	}
}

func TestAcquireContendedOnce(t *testing.T) {
	s, _ := Open(t.TempDir())
	const contenders = 32
	var won atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok, err := s.Acquire("k", time.Minute); err != nil {
				t.Errorf("Acquire: %v", err)
			} else if ok {
				won.Add(1)
			}
		}()
	}
	wg.Wait()
	if won.Load() != 1 {
		t.Fatalf("%d contenders won the lease, want exactly 1", won.Load())
	}
}

// TestAcquireAfterPublishStepsBack: a contender whose claim lands after
// the leader published and released must adopt the value, not recompute.
func TestAcquireAfterPublishStepsBack(t *testing.T) {
	dir := t.TempDir()
	leader, _ := Open(dir)
	late, _ := Open(dir)
	l, ok, _ := leader.Acquire("k", time.Minute)
	if !ok {
		t.Fatal("leader Acquire failed")
	}
	leader.Put("k", "verify", json.RawMessage(`"report"`))
	l.Release()
	if _, ok, err := late.Acquire("k", time.Minute); ok || err != nil {
		t.Fatalf("Acquire after publish: ok=%t err=%v, want false/nil", ok, err)
	}
	v, ok, err := late.WaitValue(context.Background(), "k", 5*time.Millisecond)
	if err != nil || !ok || string(v) != `"report"` {
		t.Fatalf("WaitValue after publish: v=%s ok=%t err=%v", v, ok, err)
	}
}

// TestUnparseableClaimAgedByMtime: Acquire never publishes a torn claim,
// so an unreadable one is debris. It blocks the key until its mtime is a
// TTL old instead of being removed on sight.
func TestUnparseableClaimAgedByMtime(t *testing.T) {
	s, _ := Open(t.TempDir())
	path := s.leasePath(Key("k"))
	if err := os.WriteFile(path, []byte(`{"owner":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Acquire("k", time.Minute); ok || err != nil {
		t.Fatalf("Acquire over a fresh unparseable claim: ok=%t err=%v, want false/nil", ok, err)
	}
	old := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Acquire("k", time.Minute); !ok || err != nil {
		t.Fatalf("Acquire over an aged unparseable claim: ok=%t err=%v, want takeover", ok, err)
	}
}

// TestLeaseLeavesNoDebris: the temp files and tombstones of publish,
// takeover and release are all cleaned up.
func TestLeaseLeavesNoDebris(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if _, ok, _ := s.Acquire("k", time.Millisecond); !ok {
		t.Fatal("first Acquire failed")
	}
	time.Sleep(5 * time.Millisecond)
	l, ok, _ := s.Acquire("k", time.Minute) // takeover
	if !ok {
		t.Fatal("takeover failed")
	}
	l.Release()
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("dir holds %d entries after release, want none (first: %s)", len(entries), entries[0].Name())
	}
}

func TestWaitValueSeesLeaderPublish(t *testing.T) {
	dir := t.TempDir()
	leader, _ := Open(dir)
	follower, _ := Open(dir)
	l, ok, _ := leader.Acquire("k", time.Minute)
	if !ok {
		t.Fatal("leader Acquire failed")
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		leader.Put("k", "verify", json.RawMessage(`"report"`))
		l.Release()
	}()
	v, ok, err := follower.WaitValue(context.Background(), "k", 5*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("WaitValue: ok=%t err=%v", ok, err)
	}
	if string(v) != `"report"` {
		t.Fatalf("WaitValue = %s", v)
	}
}

func TestWaitValueReturnsOnDeadLeader(t *testing.T) {
	dir := t.TempDir()
	leader, _ := Open(dir)
	follower, _ := Open(dir)
	if _, ok, _ := leader.Acquire("k", 10*time.Millisecond); !ok {
		t.Fatal("leader Acquire failed")
	}
	// The leader dies without publishing; the waiter must come back with
	// found=false once the claim expires, so the caller can take over.
	v, ok, err := follower.WaitValue(context.Background(), "k", 5*time.Millisecond)
	if err != nil || ok {
		t.Fatalf("WaitValue after leader death: v=%s ok=%t err=%v, want miss", v, ok, err)
	}
}

func TestWaitValueHonorsContext(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if _, ok, _ := s.Acquire("k", time.Minute); !ok {
		t.Fatal("Acquire failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, ok, err := s.WaitValue(ctx, "k", 5*time.Millisecond); ok || err == nil {
		t.Fatalf("WaitValue must surface ctx end: ok=%t err=%v", ok, err)
	}
}
