package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric, its unit and which direction is
// better. The two catalogs below are the benchmark's contract:
// BENCHMARK.json declares the same metrics (TestCatalogMatchesBenchmarkJSON
// checks it), the untraced run prints every e2eMetrics entry and the traced
// run every layerMetrics entry.
type metricDef struct{ name, unit, better string }

var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

// layerMetrics lists every per-layer metric. A workload reports the ones of
// the layers it calls; the others read 0 in its traced result.
var layerMetrics = []metricDef{
	// verify-exact
	{"core.build_ms", "ms", "lower"},
	{"check.verify_ms", "ms", "lower"},
	{"check.verify_self_ms", "ms", "lower"},
	{"check.phase.sparsify_ms", "ms", "lower"},
	{"check.phase.prescreen_ms", "ms", "lower"},
	{"check.phase.kappa_ms", "ms", "lower"},
	{"check.phase.lambda_ms", "ms", "lower"},
	{"check.phase.minimality_ms", "ms", "lower"},
	{"check.phase.distances_ms", "ms", "lower"},
	{"flow.probes_per_verify", "count", "lower"},
	{"flow.augments_per_probe", "count", "lower"},
	{"flow.pool_miss_ratio", "ratio", "lower"},
	{"graph.scratch_miss_ratio", "ratio", "lower"},
	{"check.prescreen_improved_ratio", "ratio", "higher"},
	{"check.sparsify_drop_ratio", "ratio", "higher"},
	{"check.p3_probed_per_verify", "count", "lower"},
	{"flow.edge_probe_us", "us", "lower"},
	{"flow.edge_probe_shortcut_us", "us", "lower"},
	// churn-delta
	{"core.apply_ms", "ms", "lower"},
	{"core.delta_edges_per_batch", "count", "lower"},
	{"check.advance_ms", "ms", "lower"},
	{"check.advance_self_ms", "ms", "lower"},
	{"check.phase.delta_probes_ms", "ms", "lower"},
	{"check.delta_fastpath_ratio", "ratio", "higher"},
	{"check.delta_probes_per_batch", "count", "lower"},
	// serve-mix
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_tail_ms", "ms", "lower"},
	{"serve.campaign_p50_ms", "ms", "lower"},
	{"serve.campaign_tail_ms", "ms", "lower"},
	{"serve.verify_p50_ms", "ms", "lower"},
	{"serve.flood_p50_ms", "ms", "lower"},
	{"serve.build_p50_ms", "ms", "lower"},
	{"serve.budget_p50_ms", "ms", "lower"},
	{"serve.lru_hit_ratio", "ratio", "higher"},
	{"serve.campaigns_per_request", "ratio", "lower"},
	{"serve.coalesced_ratio", "ratio", "higher"},
	{"store.hit_ratio", "ratio", "higher"},
	{"store.writes_per_campaign", "count", "lower"},
	{"serve.inflight_max", "count", "lower"},
	{"serve.drain_ms", "ms", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	// broadcast-net
	{"netflood.start_s", "s", "lower"},
	{"netflood.broadcast_ms", "ms", "lower"},
	{"netflood.ack_rtt_p50_us", "us", "lower"},
	{"netflood.frames_per_broadcast", "count", "lower"},
	{"netflood.acks_per_broadcast", "count", "lower"},
	{"netflood.duplicate_ratio", "ratio", "lower"},
	{"netflood.retransmits_per_broadcast", "count", "lower"},
	{"flood.run_ms", "ms", "lower"},
	// every workload
	{"obs.overhead_ratio", "ratio", "lower"},
}

// tailPercentiles are the candidates for a per-layer tail, highest last.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty sample). xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail picks the highest of tailPercentiles that leaves at least ten
// samples beyond it, and returns that percentile and its value.
func tail(xs []float64) (p, v float64) {
	p = tailPercentiles[0]
	for _, q := range tailPercentiles {
		if float64(len(xs))*(1-q/100) >= 10 {
			p = q
		}
	}
	return p, percentile(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler polls the live-heap size without stopping the world and keeps
// the peak, for peak_heap_mb.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}
