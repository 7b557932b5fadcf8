// Package obs is the observability layer of the repository: counters,
// gauges and fixed-bucket histograms, and a throttled progress reporter
// for long sweeps. Durations are not a metric kind: each is measured once,
// by a trace span (package trace) or a latency histogram.
//
// The design constraint is the hot path. Verification runs thousands of
// sub-microsecond probes per second (see BenchmarkBFSSteadyState and
// BenchmarkEdgeProbeSteadyState), so every metric is a pre-registered
// handle whose update is
//
//   - a single atomic load and branch when the sink is disabled (the
//     default — effectively a no-op sink), and
//   - a handful of atomic adds when enabled.
//
// No update allocates, no update takes a lock, and every operation is safe
// under the race detector. Enabling and disabling the sink at runtime is
// itself atomic, so a CLI can flip it on for one run and dump a report at
// exit.
//
// Metrics are registered once, at package init time of the instrumented
// package, into the process-wide Default registry:
//
//	var probes = obs.NewCounter("flow.maxflow.probes")
//	...
//	probes.Inc()
//
// Reports come out three ways: WriteJSON (the -metrics CLI flag),
// WritePrometheus (the /metrics endpoint) and expvar (the /debug/vars
// endpoint); see export.go and http.go.
package obs

import "sync/atomic"

// enabled is the global sink gate. All metric updates check it first; the
// disabled path is one atomic load and a predictable branch.
var enabled atomic.Bool

// Enable turns the metrics sink on. Updates start accumulating.
func Enable() { enabled.Store(true) }

// Disable turns the metrics sink off. Updates become no-ops; accumulated
// values are retained until Reset.
func Disable() { enabled.Store(false) }

// Enabled reports whether the sink is collecting. Instrumented code can use
// it to skip loops that exist only to feed metrics (e.g. per-node latency
// observations); individual metric updates do not need the check — they
// perform it themselves.
func Enabled() bool { return enabled.Load() }
