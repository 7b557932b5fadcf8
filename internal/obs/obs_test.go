package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// withSink enables the sink on a clean registry state for one test and
// restores the disabled default afterwards.
func withSink(t *testing.T) {
	t.Helper()
	Reset()
	Enable()
	t.Cleanup(func() {
		Disable()
		Reset()
	})
}

func TestCounterDisabledByDefault(t *testing.T) {
	Reset()
	c := NewCounter("test.disabled.counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter accumulated %d, want 0", got)
	}
}

func TestCounterEnabled(t *testing.T) {
	withSink(t)
	c := NewCounter("test.enabled.counter")
	c.Inc()
	c.Add(41)
	c.Add(-5) // negative deltas ignored: counters are monotone
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	withSink(t)
	a := NewCounter("test.idempotent")
	b := NewCounter("test.idempotent")
	if a != b {
		t.Fatal("same name must return the same counter handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles do not share state")
	}
}

func TestGaugeSetAndMax(t *testing.T) {
	withSink(t)
	g := NewGauge("test.gauge")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	g.SetMax(3)
	if g.Value() != 7 {
		t.Fatalf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Fatalf("SetMax did not raise the gauge: %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	withSink(t)
	h := NewHistogram("test.hist", 1, 2, 4, 8)
	for _, v := range []int64{0, 1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 120 {
		t.Fatalf("sum = %d, want 120", h.Sum())
	}
	s := h.snapshot()
	want := []int64{2, 1, 1, 1, 2} // le1, le2, le4, le8, +Inf
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds must panic")
		}
	}()
	NewHistogram("test.hist.bad", 5, 1)
}

// TestHistogramGaugeInertWhenDisabled: with the sink disabled, histogram
// observations and gauge updates record nothing, the same contract
// TestCounterDisabledByDefault pins for counters.
func TestHistogramGaugeInertWhenDisabled(t *testing.T) {
	Reset()
	h := NewHistogram("test.hist.disabled", 1, 10)
	h.Observe(5)
	g := NewGauge("test.gauge.disabled")
	g.Set(7)
	g.SetMax(9)
	if h.Count() != 0 || h.Sum() != 0 || h.snapshot().Buckets[1] != 0 {
		t.Fatalf("disabled histogram recorded: count=%d sum=%d", h.Count(), h.Sum())
	}
	if g.Value() != 0 {
		t.Fatalf("disabled gauge = %d, want 0", g.Value())
	}
}

func TestCountersRaceSafe(t *testing.T) {
	withSink(t)
	c := NewCounter("test.race.counter")
	h := NewHistogram("test.race.hist", 10, 100)
	g := NewGauge("test.race.gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i % 200))
				g.SetMax(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if g.Value() != 7999 {
		t.Fatalf("gauge max = %d, want 7999", g.Value())
	}
}

func TestResetClearsValuesKeepsHandles(t *testing.T) {
	withSink(t)
	c := NewCounter("test.reset.counter")
	h := NewHistogram("test.reset.hist", 1)
	c.Add(5)
	h.Observe(3)
	Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset left values behind")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("handle dead after Reset")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	withSink(t)
	NewCounter("test.json.counter").Add(9)
	NewHistogram("test.json.hist", 2, 4).Observe(3)
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Counters["test.json.counter"] != 9 {
		t.Fatalf("counter missing from report: %+v", rep.Counters)
	}
	if rep.Histograms["test.json.hist"].Count != 1 {
		t.Fatalf("histogram missing from report: %+v", rep.Histograms)
	}
	if !rep.Enabled || rep.GOMAXPROCS < 1 || rep.GoVersion == "" {
		t.Fatalf("report metadata incomplete: %+v", rep)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	withSink(t)
	NewCounter("test.prom.counter").Add(3)
	NewGauge("test.prom.gauge").Set(4)
	NewHistogram("test.prom.hist", 1, 10).Observe(5)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lhg_test_prom_counter counter",
		"lhg_test_prom_counter 3",
		"# TYPE lhg_test_prom_gauge gauge",
		"lhg_test_prom_gauge 4",
		"lhg_test_prom_hist_bucket{le=\"10\"} 1",
		"lhg_test_prom_hist_bucket{le=\"+Inf\"} 1",
		"lhg_test_prom_hist_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestProgressThrottlesAndFinishes(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep", 10)
	for i := 0; i < 10; i++ {
		p.Add(1)
	}
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "sweep: 10/10 (100.0%)") {
		t.Fatalf("missing final line: %q", out)
	}
	// Throttled: far fewer than 10 lines.
	if n := strings.Count(out, "\n"); n > 3 {
		t.Fatalf("progress printed %d lines for 10 adds within the interval", n)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Add(1) // must not panic
	p.Finish()
	p2 := NewProgress(nil, "x", 0)
	p2.Add(1)
	p2.Finish()
}
