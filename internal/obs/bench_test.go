package obs

import "testing"

// The package-level contract: a disabled metric update is one atomic load
// and a branch; an enabled one is a handful of atomic adds. These
// micro-benchmarks quantify both sides of the gate; the repo-level
// enabled-sink benchmarks (bench_test.go at the root) measure the effect
// on real probes.

func BenchmarkCounterDisabled(b *testing.B) {
	Disable()
	c := NewCounter("bench.counter.disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	Enable()
	defer Disable()
	c := NewCounter("bench.counter.enabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramDisabled(b *testing.B) {
	Disable()
	h := NewHistogram("bench.hist.disabled", 1, 2, 4, 8, 16, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 63))
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	Enable()
	defer Disable()
	h := NewHistogram("bench.hist.enabled", 1, 2, 4, 8, 16, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 63))
	}
}
