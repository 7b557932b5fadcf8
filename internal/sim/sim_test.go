package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times in 64 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(123)
	const buckets, draws = 8, 80000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := draws / buckets
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d has %d draws, want about %d", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw % 50)
		p := NewRNG(uint64(seed)).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := NewRNG(5)
	s := r.Sample(20, 7)
	if len(s) != 7 {
		t.Fatalf("Sample returned %d values, want 7", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Sample = %v invalid", s)
		}
		seen[v] = true
	}
}

func TestSamplePanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3,4) must panic")
		}
	}()
	NewRNG(1).Sample(3, 4)
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(77)
	child := parent.Split()
	// The child stream must not replay the parent stream.
	p0 := parent.Uint64()
	c0 := child.Uint64()
	if p0 == c0 {
		t.Fatal("split stream replays parent")
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var got []int
	q.At(5, func() { got = append(got, 5) })
	q.At(1, func() { got = append(got, 1) })
	q.At(3, func() { got = append(got, 3) })
	q.Run(-1)
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if q.Now() != 5 {
		t.Fatalf("Now = %d, want 5", q.Now())
	}
}

func TestEventQueueStableTies(t *testing.T) {
	var q EventQueue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(7, func() { got = append(got, i) })
	}
	q.Run(-1)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order %v not FIFO", got)
		}
	}
}

func TestEventQueueAfterAndCascade(t *testing.T) {
	var q EventQueue
	var times []int64
	q.After(2, func() {
		times = append(times, q.Now())
		q.After(3, func() { times = append(times, q.Now()) })
	})
	q.Run(-1)
	if len(times) != 2 || times[0] != 2 || times[1] != 5 {
		t.Fatalf("times = %v, want [2 5]", times)
	}
}

func TestEventQueuePastSchedulingClamps(t *testing.T) {
	var q EventQueue
	fired := int64(-1)
	q.At(10, func() {
		q.At(3, func() { fired = q.Now() }) // in the past
	})
	q.Run(-1)
	if fired != 10 {
		t.Fatalf("past event fired at %d, want clamped to 10", fired)
	}
}

func TestEventQueueRunBudget(t *testing.T) {
	var q EventQueue
	count := 0
	for i := 0; i < 10; i++ {
		q.At(int64(i), func() { count++ })
	}
	if n := q.Run(4); n != 4 || count != 4 {
		t.Fatalf("Run(4) executed %d/%d, want 4", n, count)
	}
	if q.Len() != 6 {
		t.Fatalf("Len = %d, want 6", q.Len())
	}
}

func TestEventQueueStepEmpty(t *testing.T) {
	var q EventQueue
	if q.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}
