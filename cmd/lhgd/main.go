// Command lhgd serves the LHG toolkit over HTTP/JSON: build a topology,
// verify its properties, simulate a flood, or drive a live topology through
// joins and leaves with one POST. Identical requests are answered from an
// LRU cache, and identical in-flight requests are coalesced into a single
// verification campaign, so the daemon can front many clients asking the
// same (constraint, n, k) question.
//
// Endpoints:
//
//	POST /v1/build        {"constraint":"kdiamond","n":50,"k":4}
//	POST /v1/verify       {"constraint":"ktree","n":21,"k":3,"properties":["P1","P4"]}
//	POST /v1/flood        {"constraint":"kdiamond","n":50,"k":4,"source":0,
//	                       "failures":{"Nodes":[2,5]}}
//	POST /v1/verify?batch [{...}, ...] — or a sweep {"constraint":"ktree","n":[8,12],"k":[2,3]}
//	GET  /v1/budget?constraint=ktree&n=14&k=3&retries=12
//	POST /v1/reconfigure  {"session":"prod","constraint":"ktree","n":18,"k":3}
//	                      then {"session":"prod","joins":3,"leaves":1}, ...
//	GET  /v1/constraints
//	GET  /healthz
//
// /v1/reconfigure is stateful: each session is a live topology maintained by
// delta surgery (O(k²) edge edits per membership event, never a rebuild) and
// re-verified incrementally after every batch. The response carries the net
// edge delta, the new epoch and the fresh report; a burst of identical
// batches at one epoch coalesces into a single campaign, and a stale epoch
// answers 409 so no batch is ever applied twice.
//
// Usage:
//
//	lhgd -addr 127.0.0.1:8080 -cache 256 -timeout 2m
//	lhgd -addr :8080 -http 127.0.0.1:6060   # debug vars/metrics/pprof
//	lhgd -addr :8081 -data /var/lib/lhgd    # persistent report store
//	lhgd -addr :8080 -shards 127.0.0.1:8081,127.0.0.1:8082   # shard frontend
//
// With -data, verify/flood/budget reports persist content-addressed under
// the directory and replay warm (cached=true) across restarts; multiple
// backends sharing one directory extend the request-coalescing guarantee
// fleet-wide through store leases (one campaign per key across every
// process). With -shards, the instance computes nothing itself: it routes
// each key to its home backend on a consistent-hash ring, probes /healthz,
// and fails requests over — including per-group batch reroutes — when a
// backend dies mid-flight.
//
// The metrics sink is always on: /debug/vars on the -http address exposes
// the serve.* counters (cache hits, coalesced flights, per-endpoint latency
// histograms) that the smoke tests and dashboards read. Tracing is on by
// default too (-notrace turns it off): every response carries X-Trace-Id,
// an incoming W3C traceparent header joins the caller's trace, and
// /debug/trace on the -http address exports the span flight recorder as
// Chrome trace_event JSON. GET /v1/verify?stream and
// GET /v1/reconfigure?stream&session=NAME serve live SSE progress.
// SIGINT/SIGTERM drain in-flight requests, cancel orphaned campaigns and
// exit cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"fmt"

	"lhg/internal/obs"
	"lhg/internal/obs/trace"
	"lhg/internal/serve"
	"lhg/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lhgd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("lhgd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "address to serve the /v1 API on")
		cache     = fs.Int("cache", 256, "LRU result cache capacity in entries (0 disables caching)")
		workers   = fs.Int("workers", 0, "per-campaign goroutine budget (0 = all cores); requests may ask for less, never more")
		timeout   = fs.Duration("timeout", 2*time.Minute, "per-computation deadline; exceeding it returns 504 (0 = no limit)")
		metrics   = fs.Bool("metrics", false, "dump the JSON metrics report to stderr at exit")
		httpAddr  = fs.String("http", "", "serve /debug/vars, /metrics and /debug/pprof/ on this extra address")
		sessions  = fs.Int("sessions", 0, "max live /v1/reconfigure topology sessions (0 = default 1024, negative disables the endpoint)")
		notrace   = fs.Bool("notrace", false, "disable request tracing (on by default: X-Trace-Id responses, traceparent joins, /debug/trace export)")
		verbose   = fs.Bool("v", false, "debug-level logging (per-request access lines)")
		heartbeat = fs.Duration("heartbeat", 15*time.Second, "SSE keep-alive comment period for ?stream watchers")
		dataDir   = fs.String("data", "", "persistent report store directory; verify/flood/budget results survive restarts, and instances sharing the directory share one fleet-wide campaign per key")
		leaseTTL  = fs.Duration("lease-ttl", 0, "store lease TTL before a crashed campaign leader is taken over (0 = store default)")
		shards    = fs.String("shards", "", "comma-separated backend host:port list; turns this instance into a shard frontend that routes instead of computing")
		replicas  = fs.Int("shard-replicas", 0, "virtual nodes per backend on the consistent-hash ring (0 = default 128)")
		probe     = fs.Duration("probe-interval", time.Second, "backend health-probe period in frontend mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The sink is the daemon's introspection surface (cache hit rates,
	// coalescing counts), not an opt-in extra as in the batch CLIs; same
	// for tracing, which costs one atomic load per call site when idle.
	obs.Enable()
	if !*notrace {
		trace.Enable()
	}
	stopObs, err := obs.StartCLI(*metrics, *httpAddr, logw)
	if err != nil {
		return err
	}
	defer stopObs()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(logw, level)

	opts := serve.Options{
		BaseContext:     ctx,
		CacheSize:       *cache,
		Workers:         *workers,
		Timeout:         *timeout,
		MaxSessions:     *sessions,
		Logger:          logger,
		StreamHeartbeat: *heartbeat,
		LeaseTTL:        *leaseTTL,
		ShardReplicas:   *replicas,
		ProbeInterval:   *probe,
	}
	if *dataDir != "" {
		st, err := store.Open(*dataDir)
		if err != nil {
			return err
		}
		opts.Store = st
		logger.Info("lhgd: report store open", "dir", st.Dir(), "reports", st.Len())
	}
	if *shards != "" {
		for _, b := range strings.Split(*shards, ",") {
			if b = strings.TrimSpace(b); b != "" {
				opts.Shards = append(opts.Shards, b)
			}
		}
		if len(opts.Shards) == 0 {
			return fmt.Errorf("-shards given but empty")
		}
	}
	d, err := startDaemon(ctx, opts, *addr)
	if err != nil {
		return err
	}
	role := "backend"
	if len(opts.Shards) > 0 {
		role = "frontend"
	}
	logger.Info("lhgd: listening", "addr", d.Addr(), "tracing", !*notrace, "role", role)

	<-ctx.Done()
	logger.Info("lhgd: shutting down")
	return d.Shutdown()
}

// daemon is one running HTTP server; tests drive it directly to get the
// bound address without scraping logs.
type daemon struct {
	ln     net.Listener
	srv    *http.Server
	served chan error
	conns  connStates
}

// connStates records the last http.ConnState of every open connection, so
// Shutdown can tell a request in flight from a connection that is merely
// open.
type connStates struct {
	mu sync.Mutex
	m  map[net.Conn]http.ConnState
}

func (c *connStates) set(conn net.Conn, st http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st == http.StateClosed || st == http.StateHijacked {
		delete(c.m, conn)
		return
	}
	c.m[conn] = st
}

// serving reports whether any connection is in the middle of a request.
func (c *connStates) serving() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.m {
		if st == http.StateActive {
			return true
		}
	}
	return false
}

// startDaemon binds addr (use port 0 for an ephemeral port) and serves the
// /v1 API until Shutdown. The serve options' BaseContext should be the
// daemon context so shutdown also cancels orphaned campaigns.
func startDaemon(ctx context.Context, opts serve.Options, addr string) (*daemon, error) {
	if opts.BaseContext == nil {
		opts.BaseContext = ctx
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		ln:     ln,
		served: make(chan error, 1),
		conns:  connStates{m: make(map[net.Conn]http.ConnState)},
	}
	d.srv = &http.Server{
		Handler:     serve.New(opts).Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
		ConnState:   d.conns.set,
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// Addr returns the bound listen address (host:port).
func (d *daemon) Addr() string { return d.ln.Addr().String() }

// Shutdown stops accepting, waits up to five seconds for the requests in
// flight to finish, then closes every connection still open. It returns
// context.DeadlineExceeded when requests were still running at the end of
// the grace period. A connection that has not carried a request yet does
// not hold the drain up: http.Server.Shutdown alone waits until such a
// connection is five seconds old, and a spare connection in a client's
// keep-alive pool never sends one.
func (d *daemon) Shutdown() error {
	grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained, stop := context.WithCancel(grace)
	defer stop()
	// Runs once the listener is closed, so no new connection arrives while
	// it polls.
	d.srv.RegisterOnShutdown(func() {
		for d.conns.serving() && drained.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		stop()
	})
	err := d.srv.Shutdown(drained)
	if errors.Is(err, context.Canceled) {
		err = grace.Err()
	}
	d.srv.Close()
	if serveErr := <-d.served; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}
