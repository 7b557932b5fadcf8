package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Report is a full snapshot of a registry, the shape the -metrics flag
// dumps as JSON.
type Report struct {
	Timestamp  string                       `json:"timestamp"`
	GoVersion  string                       `json:"go_version"`
	GOMAXPROCS int                          `json:"gomaxprocs"`
	Enabled    bool                         `json:"enabled"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// timeNow is the clock Snapshot stamps reports with; tests override it to
// pin the dump byte-for-byte.
var timeNow = time.Now

// Snapshot copies every metric of the registry into a Report.
func (r *Registry) Snapshot() Report {
	rep := Report{
		Timestamp:  timeNow().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Enabled:    Enabled(),
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		rep.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		rep.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		rep.Histograms[name] = h.snapshot()
	}
	return rep
}

// Snapshot copies the Default registry.
func Snapshot() Report { return Default.Snapshot() }

// Counters returns just the counter values of the Default registry — the
// convenient shape for differential tests.
func Counters() map[string]int64 { return Snapshot().Counters }

// WriteJSON writes the registry snapshot as indented JSON. The dump is
// deterministic for a given metric state: encoding/json emits map keys in
// sorted order, so two snapshots of identical registries differ only in
// the timestamp — and not at all under a pinned clock (see timeNow).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSON writes the Default registry snapshot as indented JSON.
func WriteJSON(w io.Writer) error { return Default.WriteJSON(w) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters as counter families, gauges as
// gauges, histograms with cumulative le buckets. Metric names are the
// registry names with dots mapped to underscores under an lhg_ prefix.
func (r *Registry) WritePrometheus(w io.Writer) error {
	rep := r.Snapshot()
	var b strings.Builder
	for _, name := range sortedKeys(rep.Counters) {
		p := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", p, p, rep.Counters[name])
	}
	for _, name := range sortedKeys(rep.Gauges) {
		p := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", p, p, rep.Gauges[name])
	}
	for _, name := range sortedKeys(rep.Histograms) {
		h := rep.Histograms[name]
		p := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", p)
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", p, bound, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", p, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", p, h.Sum, p, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus renders the Default registry in Prometheus text format.
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// promName maps a registry name to a valid Prometheus metric name under
// the lhg_ prefix: the conventional separators (dots, dashes) become
// underscores and any other character outside [a-zA-Z0-9_:] is replaced
// by an underscore, so a hostile or typo'd registry name can never break
// the exposition format.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("lhg_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var expvarOnce sync.Once

// PublishExpvar exposes the Default registry under the expvar key
// "lhg_metrics", so /debug/vars includes the full snapshot. Safe to call
// more than once (expvar panics on duplicate publication; this does not).
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("lhg_metrics", expvar.Func(func() any { return Snapshot() }))
	})
}
