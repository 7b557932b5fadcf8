package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from NewCounter so they appear in reports.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored so a
// counter can never decrease).
func (c *Counter) Add(n int64) {
	if n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the accumulated count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a last-value metric (worker counts, sizes). Set records the
// most recent value; SetMax keeps the high-water mark.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set records v as the current value.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger than the current value.
func (g *Gauge) SetMax(v int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bucket distribution of int64 observations. Bucket
// bounds are set at registration and never change, so Observe touches only
// atomics: a binary search over a read-only bounds slice, one bucket add,
// and the count/sum pair.
type Histogram struct {
	name   string
	bounds []int64 // upper bounds, ascending; implicit +Inf bucket after
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// snapshot returns the per-bucket cumulative counts aligned with bounds
// plus the +Inf bucket.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Bounds  []int64 `json:"bounds"`  // upper bounds; final bucket is +Inf
	Buckets []int64 `json:"buckets"` // len(Bounds)+1 per-bucket counts
}

// Registry holds named metrics. The process-wide Default registry is what
// NewCounter/NewGauge/NewHistogram register into and what the
// exporters read.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Default is the process-wide registry.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// NewCounter registers (or returns the existing) counter with this name in
// the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge registers (or returns the existing) gauge with this name in the
// Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram registers a histogram with the given ascending upper bucket
// bounds (an implicit +Inf bucket is appended) in the Default registry.
func NewHistogram(name string, bounds ...int64) *Histogram {
	return Default.Histogram(name, bounds...)
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds if new. Re-registering with different bounds panics:
// bounds are part of the metric's identity.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		return h
	}
	h := &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// Reset zeroes every metric in the registry. Registered handles stay valid
// (instrumented packages hold them in package vars), only the accumulated
// values are cleared. Intended for differential tests and between-run CLI
// hygiene, not for hot paths.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.counts {
			h.counts[i].Store(0)
		}
	}
}

// Reset zeroes every metric in the Default registry.
func Reset() { Default.Reset() }
