package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lhg"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
	"lhg/internal/shard"
	"lhg/internal/store"
)

// Service telemetry, one family per endpoint plus the shared cache and
// singleflight counters. Each request is timed once, into its route's
// latency histogram; the histograms are bucketed in microseconds so the
// sub-millisecond cache-hit path is visible, and their sum/count carry the
// route's total time and successful request count.
var (
	mReqBuild  = obs.NewCounter("serve.build.requests")
	mReqVerify = obs.NewCounter("serve.verify.requests")
	mReqFlood  = obs.NewCounter("serve.flood.requests")
	mReqConstr = obs.NewCounter("serve.constraints.requests")

	mErrBuild  = obs.NewCounter("serve.build.errors")
	mErrVerify = obs.NewCounter("serve.verify.errors")
	mErrFlood  = obs.NewCounter("serve.flood.errors")

	mHitBuild   = obs.NewCounter("serve.build.cache.hits")
	mMissBuild  = obs.NewCounter("serve.build.cache.misses")
	mHitVerify  = obs.NewCounter("serve.verify.cache.hits")
	mMissVerify = obs.NewCounter("serve.verify.cache.misses")
	mHitFlood   = obs.NewCounter("serve.flood.cache.hits")
	mMissFlood  = obs.NewCounter("serve.flood.cache.misses")

	mCoalesced = obs.NewCounter("serve.flight.coalesced")
	gInflight  = obs.NewGauge("serve.inflight")

	latencyBounds = []int64{100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000, 1000000}
	hLatBuild     = obs.NewHistogram("serve.build.latency_us", latencyBounds...)
	hLatVerify    = obs.NewHistogram("serve.verify.latency_us", latencyBounds...)
	hLatFlood     = obs.NewHistogram("serve.flood.latency_us", latencyBounds...)
)

// endpoint bundles the per-endpoint metric handles.
type endpoint struct {
	requests, errors *obs.Counter
	hits, misses     *obs.Counter
	latency          *obs.Histogram
}

var (
	epBuild  = endpoint{mReqBuild, mErrBuild, mHitBuild, mMissBuild, hLatBuild}
	epVerify = endpoint{mReqVerify, mErrVerify, mHitVerify, mMissVerify, hLatVerify}
	epFlood  = endpoint{mReqFlood, mErrFlood, mHitFlood, mMissFlood, hLatFlood}
)

// Options configures a Server. The zero value is usable: background base
// context, a 256-entry cache, no timeout, all cores per campaign, no
// persistence, no sharding.
type Options struct {
	// BaseContext outlives any single request; its cancellation (daemon
	// shutdown) aborts every in-flight computation. nil means Background.
	BaseContext context.Context
	// CacheSize is the LRU capacity in entries (graphs, reports and flood
	// results share one cache). 0 disables caching; negative means the
	// 256-entry default.
	CacheSize int
	// Workers is the per-campaign goroutine budget (0 = all cores). A
	// request may lower it but never raise it above this ceiling.
	Workers int
	// Timeout bounds each computation; exceeding it maps to HTTP 504.
	// Zero means no limit beyond the request's own context.
	Timeout time.Duration
	// MaxSessions caps the live /v1/reconfigure topology sessions.
	// 0 means the 1024 default; negative disables the endpoint's sessions.
	MaxSessions int
	// Logger receives the structured access and campaign log. nil
	// discards (the zero-config default); pass obs.NewLogger to wire it.
	Logger *slog.Logger
	// StreamHeartbeat is the idle keep-alive period of the SSE streams
	// (GET /v1/verify?stream, GET /v1/reconfigure?stream). 0 means 15s.
	StreamHeartbeat time.Duration
	// Store is the persistent content-addressed report store. When set,
	// the LRU becomes a read-through layer above it: verify, flood and
	// budget results are written atomically under the data dir, replayed
	// warm after restarts, and shared by every process opened on the same
	// directory — with the store-level lease extending the singleflight
	// guarantee fleet-wide.
	Store *store.Store
	// LeaseTTL bounds how long a crashed flight leader can block a store
	// key before another process takes over. 0 means the store default.
	LeaseTTL time.Duration
	// Shards switches the server into frontend proxy mode: instead of
	// computing, it routes every keyed request across these backend
	// addresses (host:port) on a consistent-hash ring, with health probes
	// and retry-on-backend-death. The (constraint,n,k,seed,props) key
	// space is stable across frontends, so any number of them can front
	// one fleet.
	Shards []string
	// ShardReplicas is the virtual-node count per backend (0 = default).
	ShardReplicas int
	// ProbeInterval is the backend health-probe period (0 = 1s).
	ProbeInterval time.Duration
}

// Server is the HTTP service: the /v1 endpoints, one LRU cache above an
// optional persistent store, one singleflight group. In shard-frontend
// mode it routes instead of computing. It is safe for concurrent use.
type Server struct {
	base     context.Context
	workers  int
	timeout  time.Duration
	cache    *lruCache
	flights  *flightGroup
	mux      *http.ServeMux
	inflight atomic.Int64
	log      *slog.Logger

	// Persistent report store (nil = in-memory only).
	store    *store.Store
	leaseTTL time.Duration

	// Shard-frontend state (nil = backend / standalone mode).
	proxy *proxy

	// Stateful topology sessions for POST /v1/reconfigure.
	sessMu      sync.Mutex
	sessions    map[string]*topoSession
	maxSessions int

	// Live SSE progress feeds: one per in-flight streamed verify campaign
	// (keyed by verify key, removed on completion) and one per watched
	// topology session (keyed by session name, live while watched).
	heartbeat   time.Duration
	feedMu      sync.Mutex
	verifyFeeds map[string]*feed
	sessFeeds   map[string]*feed
}

// New builds a Server from opts.
func New(opts Options) *Server {
	base := opts.BaseContext
	if base == nil {
		base = context.Background()
	}
	size := opts.CacheSize
	if size < 0 {
		size = 256
	}
	maxSessions := opts.MaxSessions
	if maxSessions == 0 {
		maxSessions = 1024
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.NewLogger(nil, slog.LevelInfo)
	}
	heartbeat := opts.StreamHeartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	s := &Server{
		base:        base,
		workers:     opts.Workers,
		timeout:     opts.Timeout,
		cache:       newLRU(size),
		flights:     newFlightGroup(base),
		mux:         http.NewServeMux(),
		log:         logger,
		store:       opts.Store,
		leaseTTL:    opts.LeaseTTL,
		sessions:    make(map[string]*topoSession),
		maxSessions: maxSessions,
		heartbeat:   heartbeat,
		verifyFeeds: make(map[string]*feed),
		sessFeeds:   make(map[string]*feed),
	}
	if len(opts.Shards) > 0 {
		ring, err := shard.New(opts.Shards, shard.WithReplicas(opts.ShardReplicas))
		if err != nil {
			// A frontend with no routable fleet cannot serve anything
			// keyed; surface the configuration error on every request.
			s.log.Error("serve: bad shard fleet", "err", err)
		} else {
			s.proxy = newProxy(s, ring, opts.ProbeInterval)
		}
	}
	s.mux.HandleFunc("/v1/build", s.handleBuild)
	s.mux.HandleFunc("/v1/verify", s.handleVerify)
	s.mux.HandleFunc("/v1/flood", s.handleFlood)
	s.mux.HandleFunc("/v1/budget", s.handleBudget)
	s.mux.HandleFunc("/v1/reconfigure", s.handleReconfigure)
	s.mux.HandleFunc("/v1/constraints", s.handleConstraints)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// Handler returns the root handler serving the /v1 API, wrapped in the
// per-request tracing middleware (traceparent ingestion, X-Trace-Id on
// every response). In shard-frontend mode the proxy mux routes instead.
func (s *Server) Handler() http.Handler {
	if s.proxy != nil {
		return s.traced(s.proxy.mux)
	}
	return s.traced(s.mux)
}

// BuildRequest selects one graph: the cache key fields. Seed, when present,
// asks for the deterministic variant drawn from that seed (K-TREE and
// K-DIAMOND only).
type BuildRequest struct {
	Constraint string  `json:"constraint"`
	N          int     `json:"n"`
	K          int     `json:"k"`
	Seed       *uint64 `json:"seed,omitempty"`
}

// VerifyRequest narrows a verification: optional worker override (capped at
// the server budget) and an optional property subset ("P1".."P4"; empty
// means all).
type VerifyRequest struct {
	BuildRequest
	Workers    int      `json:"workers,omitempty"`
	Properties []string `json:"properties,omitempty"`
}

// FloodRequest runs one flood simulation over the selected graph.
type FloodRequest struct {
	BuildRequest
	Source   int          `json:"source"`
	Failures lhg.Failures `json:"failures"`
}

// BuildResponse returns the graph in the lhgen JSON encoding.
type BuildResponse struct {
	Constraint string     `json:"constraint"`
	N          int        `json:"n"`
	K          int        `json:"k"`
	Seed       *uint64    `json:"seed,omitempty"`
	Edges      int        `json:"edges"`
	Cached     bool       `json:"cached"`
	Graph      *lhg.Graph `json:"graph"`
}

// VerifyResponse wraps the full property report.
type VerifyResponse struct {
	Constraint string      `json:"constraint"`
	N          int         `json:"n"`
	K          int         `json:"k"`
	Seed       *uint64     `json:"seed,omitempty"`
	Cached     bool        `json:"cached"`
	IsLHG      bool        `json:"is_lhg"`
	Report     *lhg.Report `json:"report"`
}

// FloodResponse wraps one flood result.
type FloodResponse struct {
	Constraint string           `json:"constraint"`
	N          int              `json:"n"`
	K          int              `json:"k"`
	Seed       *uint64          `json:"seed,omitempty"`
	Source     int              `json:"source"`
	Cached     bool             `json:"cached"`
	Result     *lhg.FloodResult `json:"result"`
}

// ConstraintInfo describes one supported constraint for GET /v1/constraints.
type ConstraintInfo struct {
	Name string `json:"name"`
	// Variants reports whether the constraint accepts a build seed.
	Variants bool `json:"variants"`
}

// HealthResponse answers GET /healthz: liveness plus the server's role,
// which the shard probes and smoke tests read.
type HealthResponse struct {
	OK    bool   `json:"ok"`
	Role  string `json:"role"`  // "backend" or "frontend"
	Store bool   `json:"store"` // persistent report store attached
}

// parse/validation ----------------------------------------------------------

func (br *BuildRequest) validate() (lhg.Constraint, error) {
	c, err := lhg.ParseConstraint(br.Constraint)
	if err != nil {
		return 0, err
	}
	if br.N <= 0 || br.K <= 0 {
		return 0, fmt.Errorf("serve: need n > 0 and k > 0, got n=%d k=%d", br.N, br.K)
	}
	if br.Seed != nil && c != lhg.KTree && c != lhg.KDiamond {
		return 0, fmt.Errorf("serve: constraint %s has no seeded variants (use ktree or kdiamond)", c)
	}
	return c, nil
}

func (br *BuildRequest) check() error { _, err := br.validate(); return err }

func (vr *VerifyRequest) check() error {
	if _, err := vr.validate(); err != nil {
		return err
	}
	_, err := parseProperties(vr.Properties)
	return err
}

// parseProperties maps ["P1","P4"] onto the check bitmask; empty means all.
func parseProperties(names []string) (lhg.Properties, error) {
	var p lhg.Properties
	for _, name := range names {
		switch strings.ToUpper(strings.TrimSpace(name)) {
		case "P1":
			p |= lhg.PropNodeConnectivity
		case "P2":
			p |= lhg.PropLinkConnectivity
		case "P3":
			p |= lhg.PropLinkMinimality
		case "P4":
			p |= lhg.PropDiameter
		default:
			return 0, fmt.Errorf("serve: unknown property %q (want P1..P4)", name)
		}
	}
	return p, nil
}

// cache keys ----------------------------------------------------------------

func seedKey(seed *uint64) string {
	if seed == nil {
		return "canonical"
	}
	return fmt.Sprintf("seed=%d", *seed)
}

// graphKey is shared by every endpoint so a verify warms the build cache and
// vice versa. It is also the shard routing key: every frontend hashes the
// same string, so a key has one home backend fleet-wide. Worker counts are
// deliberately absent from every key: reports are deterministic regardless
// of parallelism.
func (br *BuildRequest) graphKey(c lhg.Constraint) string {
	return fmt.Sprintf("graph|%s|n=%d|k=%d|%s", c, br.N, br.K, seedKey(br.Seed))
}

func verifyKey(graphKey string, props lhg.Properties) string {
	return fmt.Sprintf("verify|%s|props=%d", graphKey, props)
}

func floodKey(graphKey string, source int, f lhg.Failures) string {
	nodes := append([]int(nil), f.Nodes...)
	sort.Ints(nodes)
	links := append([]lhg.Edge(nil), f.Links...)
	for i, e := range links {
		if e.U > e.V {
			links[i] = lhg.Edge{U: e.V, V: e.U}
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].U != links[j].U {
			return links[i].U < links[j].U
		}
		return links[i].V < links[j].V
	})
	return fmt.Sprintf("flood|%s|src=%d|nodes=%v|links=%v", graphKey, source, nodes, links)
}

// persistence ---------------------------------------------------------------

// persist describes how one endpoint's results live in the report store:
// the envelope kind and the decode back into the in-memory type. Endpoints
// without a spec (graphs, reconfigure epochs) stay LRU-only.
type persistSpec struct {
	kind   string
	decode func(json.RawMessage) (any, error)
}

func decodeInto[T any](raw json.RawMessage) (any, error) {
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, err
	}
	return v, nil
}

var (
	persistVerify = &persistSpec{"verify", decodeInto[lhg.Report]}
	persistFlood  = &persistSpec{"flood", decodeInto[lhg.FloodResult]}
	persistBudget = &persistSpec{"budget", decodeInto[lhg.BudgetReport]}
)

// storeGet reads key through the persistent store, decoding into the
// endpoint's type. Any store fault degrades to a miss: the campaign can
// always be recomputed.
func (s *Server) storeGet(key string, p *persistSpec) (any, bool) {
	if s.store == nil || p == nil {
		return nil, false
	}
	raw, ok, err := s.store.Get(key)
	if err != nil || !ok {
		if err != nil {
			s.log.Warn("store read failed", "key", key, "err", err)
		}
		return nil, false
	}
	v, err := p.decode(raw)
	if err != nil {
		s.log.Warn("store decode failed", "key", key, "err", err)
		return nil, false
	}
	return v, true
}

// storePut publishes a freshly computed value; failures are logged, not
// fatal — the in-memory result is already good.
func (s *Server) storePut(key string, p *persistSpec, v any) {
	if s.store == nil || p == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err == nil {
		err = s.store.Put(key, p.kind, raw)
	}
	if err != nil {
		s.log.Warn("store write failed", "key", key, "err", err)
	}
}

// shared plumbing -----------------------------------------------------------

// compute answers one request through the tiered read path — LRU, then the
// persistent store, then one computation — with two singleflight layers:
// the in-process refcounted flight group, and (when a store is attached)
// the store-level lease that makes the flight leader unique fleet-wide. A
// leader that loses the lease race waits for the foreign leader's value
// instead of recomputing, so a request landing on ANY process for the same
// key still runs exactly one campaign across the fleet.
//
// fn runs under the group's detached context bounded by the server
// timeout; the request's span identity is grafted onto that detached
// context so the campaign's child spans attribute to the request that led
// the flight, while cancellation stays flight-owned.
func (s *Server) compute(ctx context.Context, ep endpoint, key string, p *persistSpec, fn func(context.Context) (any, error)) (val any, cached bool, err error) {
	sp := trace.FromContext(ctx)
	if v, ok := s.cache.Get(key); ok {
		ep.hits.Inc()
		if sp.Live() {
			sp.Event("cache-hit", trace.Str("key", key))
		}
		return v, true, nil
	}
	if v, ok := s.storeGet(key, p); ok {
		// Store read-through: another process (or a previous life of this
		// one) already paid for the campaign. Fill the LRU above it.
		s.cache.Put(key, v)
		ep.hits.Inc()
		if sp.Live() {
			sp.Event("store-hit", trace.Str("key", key))
		}
		return v, true, nil
	}
	ep.misses.Inc()
	if sp.Live() {
		sp.Event("cache-miss", trace.Str("key", key))
	}
	var adopted atomic.Bool // the flight found the value instead of computing it
	v, err, shared := s.flights.Do(ctx, key, func(runCtx context.Context) (any, error) {
		// Double-check the cache as the flight leader: a request that
		// missed the cache just before a concurrent flight completed and
		// unmapped itself would otherwise re-run the whole campaign. The
		// completing flight fills the cache before it unmaps, so this
		// lookup closes that window. Such a request rode on the flight
		// that just completed, so it counts as coalesced onto it.
		if v, ok := s.cache.Get(key); ok {
			adopted.Store(true)
			mCoalesced.Inc()
			return v, nil
		}
		if s.timeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(runCtx, s.timeout)
			defer cancel()
		}
		runCtx, csp := trace.StartSpan(trace.Graft(runCtx, ctx), "serve.campaign")
		if csp.Live() {
			csp.SetAttr(trace.Str("key", key))
		}
		defer csp.End()
		if s.store != nil && p != nil {
			v, leased, err := s.leaseOrAdopt(runCtx, key, p, csp)
			if err != nil {
				return nil, err
			}
			if v != nil {
				adopted.Store(true)
				s.cache.Put(key, v)
				return v, nil
			}
			if leased != nil {
				defer leased.Release()
			}
		}
		v, err := fn(runCtx)
		if err == nil {
			s.cache.Put(key, v)
			s.storePut(key, p, v)
		}
		return v, err
	})
	if shared {
		mCoalesced.Inc()
		if sp.Live() {
			sp.Event("coalesced", trace.Str("key", key))
		}
	}
	if err != nil {
		return nil, false, err
	}
	// A coalesced request — or one whose flight found a completed result
	// in the cache or adopted a foreign process's — reports cached=true:
	// it did not pay for the computation, which is what clients use the
	// flag for.
	return v, shared || adopted.Load(), nil
}

// leaseOrAdopt makes the in-process flight leader unique fleet-wide: it
// contends for the store lease on key and either wins it (returning the
// held lease; the caller computes and releases) or adopts the value the
// foreign leader publishes. A foreign leader that dies without publishing
// expires its lease and the contest restarts. Store faults degrade to
// local computation — persistence never makes a request fail.
func (s *Server) leaseOrAdopt(ctx context.Context, key string, p *persistSpec, csp trace.Span) (any, *store.Lease, error) {
	for {
		lease, won, err := s.store.Acquire(key, s.leaseTTL)
		if err != nil {
			s.log.Warn("lease acquire failed, computing locally", "key", key, "err", err)
			return nil, nil, nil
		}
		if won {
			return nil, lease, nil
		}
		if csp.Live() {
			csp.Event("lease-wait", trace.Str("key", key))
		}
		raw, found, err := s.store.WaitValue(ctx, key, 0)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			s.log.Warn("lease wait failed, computing locally", "key", key, "err", err)
			return nil, nil, nil
		}
		if found {
			v, err := p.decode(raw)
			if err != nil {
				s.log.Warn("foreign result undecodable, computing locally", "key", key, "err", err)
				return nil, nil, nil
			}
			if csp.Live() {
				csp.Event("lease-adopted", trace.Str("key", key))
			}
			return v, nil, nil
		}
		// The foreign leader died without publishing: contend again.
	}
}

// getGraph resolves the graph for br through the shared cache/flight path.
func (s *Server) getGraph(ctx context.Context, c lhg.Constraint, br *BuildRequest) (*lhg.Graph, bool, error) {
	v, cached, err := s.compute(ctx, epBuild, br.graphKey(c), nil, func(runCtx context.Context) (any, error) {
		if br.Seed != nil {
			return lhg.Build(runCtx, c, br.N, br.K, lhg.WithSeed(*br.Seed))
		}
		return lhg.Build(runCtx, c, br.N, br.K)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*lhg.Graph), cached, nil
}

// track opens the per-request instrumentation and starts the request's
// one clock; the returned func closes it, recording a success's latency
// into the route histogram or counting a failure.
func (s *Server) track(ep endpoint) (done func(failed bool)) {
	start := time.Now()
	ep.requests.Inc()
	gInflight.Set(s.inflight.Add(1))
	return func(failed bool) {
		gInflight.Set(s.inflight.Add(-1))
		if failed {
			ep.errors.Inc()
			return
		}
		ep.latency.Observe(time.Since(start).Microseconds())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// handlers ------------------------------------------------------------------

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.notAllowed(w, r, http.MethodPost)
		return
	}
	runJSON(s, epBuild, w, r, func(ctx context.Context, req *BuildRequest) (any, error) {
		c, _ := req.validate() // checked by the pipeline
		g, cached, err := s.getGraph(ctx, c, req)
		if err != nil {
			return nil, err
		}
		return BuildResponse{
			Constraint: c.String(), N: req.N, K: req.K, Seed: req.Seed,
			Edges: g.Size(), Cached: cached, Graph: g,
		}, nil
	})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	switch {
	case r.Method == http.MethodGet && q.Has("stream"):
		s.handleVerifyStream(w, r)
	case r.Method == http.MethodPost && q.Has("batch"):
		s.handleVerifyBatch(w, r)
	case r.Method == http.MethodPost:
		runJSON(s, epVerify, w, r, func(ctx context.Context, req *VerifyRequest) (any, error) {
			return s.verifyOne(ctx, req)
		})
	default:
		// GET is only meaningful with ?stream; anything else wants POST.
		s.notAllowed(w, r, http.MethodPost)
	}
}

// verifyOne answers one verification request; it is the shared compute
// path of POST /v1/verify, each item of a ?batch, and the ?stream
// campaign goroutine.
func (s *Server) verifyOne(ctx context.Context, req *VerifyRequest) (*VerifyResponse, error) {
	c, err := req.validate()
	if err != nil {
		return nil, badRequest(err)
	}
	props, err := parseProperties(req.Properties)
	if err != nil {
		return nil, badRequest(err)
	}
	g, _, err := s.getGraph(ctx, c, &req.BuildRequest)
	if err != nil {
		return nil, err
	}
	workers := clampRequestWorkers(req.Workers, s.workers)
	key := verifyKey(req.graphKey(c), props)
	v, cached, err := s.compute(ctx, epVerify, key, persistVerify, func(runCtx context.Context) (any, error) {
		return lhg.Verify(runCtx, g, req.K, lhg.WithWorkers(workers),
			lhg.WithProperties(props))
	})
	if err != nil {
		return nil, err
	}
	report := v.(*lhg.Report)
	return &VerifyResponse{
		Constraint: c.String(), N: req.N, K: req.K, Seed: req.Seed,
		Cached: cached, IsLHG: report.IsLHG(), Report: report,
	}, nil
}

func (s *Server) handleFlood(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.notAllowed(w, r, http.MethodPost)
		return
	}
	runJSON(s, epFlood, w, r, func(ctx context.Context, req *FloodRequest) (any, error) {
		c, _ := req.validate() // checked by the pipeline
		g, _, err := s.getGraph(ctx, c, &req.BuildRequest)
		if err != nil {
			return nil, err
		}
		key := floodKey(req.graphKey(c), req.Source, req.Failures)
		v, cached, err := s.compute(ctx, epFlood, key, persistFlood, func(runCtx context.Context) (any, error) {
			return lhg.Flood(runCtx, g, req.Source, lhg.WithFailures(req.Failures))
		})
		if err != nil {
			// A bad source or crashed-source request is a client error, not
			// a server fault; the flood kernel reports both as plain errors.
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return nil, err
			}
			return nil, badRequest(err)
		}
		return FloodResponse{
			Constraint: c.String(), N: req.N, K: req.K, Seed: req.Seed,
			Source: req.Source, Cached: cached, Result: v.(*lhg.FloodResult),
		}, nil
	})
}

func (s *Server) handleConstraints(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.notAllowed(w, r, http.MethodGet)
		return
	}
	mReqConstr.Inc()
	infos := make([]ConstraintInfo, 0, 4)
	for _, c := range lhg.Constraints() {
		infos = append(infos, ConstraintInfo{
			Name:     c.String(),
			Variants: c == lhg.KTree || c == lhg.KDiamond,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Constraints []ConstraintInfo `json:"constraints"`
	}{infos})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.notAllowed(w, r, http.MethodGet)
		return
	}
	role := "backend"
	if s.proxy != nil {
		role = "frontend"
	}
	writeJSON(w, http.StatusOK, HealthResponse{OK: true, Role: role, Store: s.store != nil})
}

// clampRequestWorkers lowers the request's worker ask to the server budget.
// Zero on either side means "all cores", which any explicit ask undercuts.
func clampRequestWorkers(asked, budget int) int {
	if asked <= 0 {
		return budget
	}
	if budget > 0 && asked > budget {
		return budget
	}
	return asked
}
