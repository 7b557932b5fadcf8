package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"lhg"
	"lhg/internal/core"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

// POST /v1/reconfigure — stateful topology sessions.
//
// A session is a named live topology: a churn engine (core.Grower) plus a DeltaVerifier holding the current epoch's report.
// Each request applies a batch of {joins, leaves}, returns the NET edge
// surgery of the batch and the re-verified report, and bumps the epoch.
//
// Concurrency reuses the server's refcounted singleflight and cache-fill
// invariants: the flight key pins the session's CURRENT epoch —
// reconfig|<session>|epoch=E|j=J|l=L — so a burst of identical requests
// racing at the same epoch runs exactly ONE campaign (one epoch bump, one
// verification); the rest coalesce onto its response with cached=true.
// Distinct batches racing at the same epoch serialize on the session lock;
// the losers' epochs moved under them, which surfaces as 409 so the client
// re-reads instead of double-applying.
var (
	mReqReconfig  = obs.NewCounter("serve.reconfigure.requests")
	mErrReconfig  = obs.NewCounter("serve.reconfigure.errors")
	mHitReconfig  = obs.NewCounter("serve.reconfigure.cache.hits")
	mMissReconfig = obs.NewCounter("serve.reconfigure.cache.misses")
	hLatReconfig  = obs.NewHistogram("serve.reconfigure.latency_us", latencyBounds...)
	gSessions     = obs.NewGauge("serve.reconfigure.sessions")

	epReconfig = endpoint{mReqReconfig, mErrReconfig, mHitReconfig, mMissReconfig, hLatReconfig}
)

// errEpochConflict maps to HTTP 409: the session advanced between the
// caller reading its epoch and the campaign running.
var errEpochConflict = errors.New("serve: session epoch advanced concurrently, retry")

// errUnknownSession maps to HTTP 404: the request named a session that does
// not exist and did not carry the parameters to create it.
var errUnknownSession = errors.New("create it with constraint, n and k")

// errSessionLimit maps to HTTP 429: the server refuses to hold more live
// topology sessions.
var errSessionLimit = errors.New("serve: session limit reached")

// topoSession is one live topology. init runs once (under once) on the
// creating request's parameters; epoch mutations serialize on mu.
type topoSession struct {
	once    sync.Once
	initErr error

	mu         sync.Mutex
	constraint lhg.Constraint
	engine     *core.Grower
	verifier   *lhg.DeltaVerifier
	epoch      int
	broken     bool
}

// ReconfigureRequest drives one topology session. The first request for a
// session must carry constraint/n/k to create it; later requests may omit
// them (a non-empty constraint or non-zero k is then cross-checked).
//
// Epoch, when set, is a compare-and-swap guard: the batch applies only if
// the session is still at that epoch, otherwise the request answers 409
// without touching the topology. A client that lost a response can safely
// retry with the epoch it last observed — the batch is never applied twice.
type ReconfigureRequest struct {
	Session    string `json:"session"`
	Constraint string `json:"constraint,omitempty"`
	N          int    `json:"n,omitempty"`
	K          int    `json:"k,omitempty"`
	Joins      int    `json:"joins"`
	Leaves     int    `json:"leaves"`
	Epoch      *int   `json:"epoch,omitempty"`
	Workers    int    `json:"workers,omitempty"`
}

// ReconfigureResponse reports one reconfiguration epoch: the net surgery
// that was applied and the re-verified report of the new topology.
type ReconfigureResponse struct {
	Session    string      `json:"session"`
	Constraint string      `json:"constraint"`
	Epoch      int         `json:"epoch"`
	N          int         `json:"n"`
	K          int         `json:"k"`
	Added      []lhg.Edge  `json:"added"`
	Removed    []lhg.Edge  `json:"removed"`
	Cached     bool        `json:"cached"`
	IsLHG      bool        `json:"is_lhg"`
	Report     *lhg.Report `json:"report"`
}

func (rr *ReconfigureRequest) check() error {
	if strings.TrimSpace(rr.Session) == "" {
		return fmt.Errorf("serve: reconfigure needs a session name")
	}
	if rr.Joins < 0 || rr.Leaves < 0 {
		return fmt.Errorf("serve: joins and leaves must be >= 0, got %d/%d", rr.Joins, rr.Leaves)
	}
	// A malformed or engineless constraint is the client's fault whether
	// the session exists or not; reject it before touching session state.
	if rr.Constraint != "" {
		c, err := lhg.ParseConstraint(rr.Constraint)
		if err == nil && c != lhg.KTree && c != lhg.KDiamond {
			err = fmt.Errorf("serve: constraint %s has no churn engine (use ktree or kdiamond)", c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// session returns the named live session, creating it from req on first
// use. Creation runs the full baseline verification; concurrent creators
// block on once and share the outcome.
func (s *Server) session(req *ReconfigureRequest) (*topoSession, error) {
	s.sessMu.Lock()
	sess, ok := s.sessions[req.Session]
	if !ok {
		if req.Constraint == "" || req.N == 0 || req.K == 0 {
			// The request cannot create a session, so this is a lookup
			// miss, not a capacity problem.
			s.sessMu.Unlock()
			return nil, fmt.Errorf("serve: unknown session %q (%w)", req.Session, errUnknownSession)
		}
		if s.maxSessions < 0 {
			s.sessMu.Unlock()
			return nil, fmt.Errorf("serve: topology sessions are disabled: %w", errSessionLimit)
		}
		if len(s.sessions) >= s.maxSessions {
			s.sessMu.Unlock()
			return nil, fmt.Errorf("serve: at most %d live sessions: %w", s.maxSessions, errSessionLimit)
		}
		sess = &topoSession{}
		s.sessions[req.Session] = sess
		gSessions.Set(int64(len(s.sessions)))
	}
	s.sessMu.Unlock()

	sess.once.Do(func() { sess.initErr = sess.init(s, req) })
	if sess.initErr != nil {
		// Unmap the stillborn session so a corrected request can retry.
		s.sessMu.Lock()
		if s.sessions[req.Session] == sess {
			delete(s.sessions, req.Session)
			gSessions.Set(int64(len(s.sessions)))
		}
		s.sessMu.Unlock()
		return nil, sess.initErr
	}
	return sess, nil
}

func (sess *topoSession) init(s *Server, req *ReconfigureRequest) error {
	if req.Constraint == "" || req.N == 0 || req.K == 0 {
		return fmt.Errorf("serve: unknown session %q (%w)", req.Session, errUnknownSession)
	}
	c, err := lhg.ParseConstraint(req.Constraint)
	if err != nil {
		return err
	}
	var engine *core.Grower
	switch c {
	case lhg.KTree:
		engine, err = lhg.NewKTreeGrowerAt(req.K, req.N)
	case lhg.KDiamond:
		engine, err = lhg.NewKDiamondGrowerAt(req.K, req.N)
	default:
		return fmt.Errorf("serve: constraint %s has no churn engine (use ktree or kdiamond)", c)
	}
	if err != nil {
		return err
	}
	ctx := s.base
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	dv, err := lhg.NewDeltaVerifier(ctx, engine.Graph(), req.K,
		lhg.WithWorkers(clampRequestWorkers(req.Workers, s.workers)))
	if err != nil {
		return err
	}
	sess.constraint = c
	sess.engine = engine
	sess.verifier = dv
	return nil
}

// checkParams cross-checks redundant parameters a non-creating request may
// have sent against the live session.
func (sess *topoSession) checkParams(req *ReconfigureRequest) error {
	if req.Constraint != "" {
		c, err := lhg.ParseConstraint(req.Constraint)
		if err != nil {
			return err
		}
		if c != sess.constraint {
			return fmt.Errorf("serve: session %q is %s, not %s", req.Session, sess.constraint, c)
		}
	}
	if req.K != 0 && req.K != sess.engine.K() {
		return fmt.Errorf("serve: session %q has k=%d, not k=%d", req.Session, sess.engine.K(), req.K)
	}
	return nil
}

// reconfigure runs one campaign: apply the batch, re-verify incrementally,
// bump the epoch. Called as the flight leader's fn, holding no lock yet.
func (sess *topoSession) reconfigure(ctx context.Context, req *ReconfigureRequest, atEpoch int) (*ReconfigureResponse, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.broken {
		return nil, fmt.Errorf("serve: session %q is broken by a previous internal error", req.Session)
	}
	if sess.epoch != atEpoch {
		return nil, errEpochConflict
	}
	engine := sess.engine
	k := engine.K()
	resp := &ReconfigureResponse{
		Session: req.Session, Constraint: sess.constraint.String(),
		Epoch: sess.epoch, N: engine.N(), K: k,
		Added: []lhg.Edge{}, Removed: []lhg.Edge{},
	}
	if req.Joins == 0 && req.Leaves == 0 {
		// Pure read: current epoch, no surgery, no bump.
		resp.Report = sess.verifier.Report()
		resp.IsLHG = resp.Report.IsLHG()
		return resp, nil
	}
	newN := engine.N() + req.Joins - req.Leaves
	if newN < 2*k {
		return nil, fmt.Errorf("serve: batch would shrink session %q to n=%d, below the minimal 2k=%d: %w",
			req.Session, newN, 2*k, lhg.ErrNotConstructible)
	}
	changes := make([]lhg.Change, 0, req.Joins+req.Leaves)
	for i := 0; i < req.Joins; i++ {
		changes = append(changes, lhg.ChangeJoin)
	}
	for i := 0; i < req.Leaves; i++ {
		changes = append(changes, lhg.ChangeLeave)
	}
	d, err := engine.Apply(changes)
	if err != nil {
		// Joins ran first, so the floor pre-check makes underflow
		// impossible; any failure here is an engine invariant violation.
		sess.broken = true
		return nil, fmt.Errorf("serve: session %q surgery failed: %v", req.Session, err)
	}
	report, err := sess.verifier.Advance(ctx, d, engine.N())
	if err != nil {
		// The engine moved but the verifier did not: rewind the engine by
		// compensating surgery (engine state is unique per size, so the
		// inverse batch restores it exactly), keeping the epoch coherent.
		sess.unwind(newN - resp.N)
		return nil, err
	}
	sess.epoch++
	resp.Epoch = sess.epoch
	resp.N = engine.N()
	resp.Added = append(resp.Added, d.Added...)
	resp.Removed = append(resp.Removed, d.Removed...)
	resp.Report = report
	resp.IsLHG = report.IsLHG()
	return resp, nil
}

// unwind compensates a surgery of `delta` net admissions after a failed
// verification, restoring the engine to the epoch's size.
func (sess *topoSession) unwind(delta int) {
	var err error
	for ; delta > 0 && err == nil; delta-- {
		_, err = sess.engine.Shrink()
	}
	for ; delta < 0 && err == nil; delta++ {
		_, err = sess.engine.Grow()
	}
	if err != nil {
		sess.broken = true
	}
}

func (s *Server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Query().Has("stream"):
		s.handleReconfigureStream(w, r)
	case r.Method == http.MethodPost:
		runJSON(s, epReconfig, w, r, func(ctx context.Context, req *ReconfigureRequest) (any, error) {
			return s.reconfigureOne(ctx, req)
		})
	default:
		// GET is only meaningful with ?stream; anything else wants POST.
		s.notAllowed(w, r, http.MethodPost)
	}
}

// reconfigureOne runs one reconfigure request end-to-end: session lookup or
// creation, parameter cross-check, epoch CAS, then the flight-coalesced
// campaign.
func (s *Server) reconfigureOne(ctx context.Context, req *ReconfigureRequest) (any, error) {
	sess, err := s.session(req)
	if err != nil {
		// Sentinel-classified errors (unknown session, session limit,
		// not-constructible) keep their statuses; any other creation
		// failure is bad creation parameters, not a server fault.
		if status, _ := classify(err); status == http.StatusInternalServerError {
			err = badRequest(err)
		}
		return nil, err
	}
	if err := sess.checkParams(req); err != nil {
		return nil, conflict(err)
	}
	sess.mu.Lock()
	atEpoch := sess.epoch
	sess.mu.Unlock()
	// Client-side CAS: a request pinned to a stale epoch is rejected before
	// any flight forms; the in-campaign atEpoch re-check under the session
	// lock closes the remaining race, so the pinned batch applies at that
	// epoch exactly once or not at all.
	if req.Epoch != nil && *req.Epoch != atEpoch {
		return nil, conflict(fmt.Errorf(
			"serve: session %q is at epoch %d, request pinned epoch %d", req.Session, atEpoch, *req.Epoch))
	}
	key := fmt.Sprintf("reconfig|%s|epoch=%d|j=%d|l=%d", req.Session, atEpoch, req.Joins, req.Leaves)
	v, cached, err := s.compute(ctx, epReconfig, key, nil, func(runCtx context.Context) (any, error) {
		// A watched session streams its campaigns: epoch brackets always,
		// plus — mid-flight — every span event of the campaign's trace.
		// The emitter detaches before the flight returns, so a watcher
		// arriving between campaigns costs nothing.
		f := s.sessionFeed(req.Session, false)
		if f != nil {
			f.publish("epoch-start", map[string]any{
				"session": req.Session, "epoch": atEpoch,
				"joins": req.Joins, "leaves": req.Leaves,
			})
			if sp := trace.FromContext(runCtx); sp.Live() {
				remove := sp.Trace().AddEmitter(f.traceEmitter())
				defer remove()
			}
		}
		resp, err := sess.reconfigure(runCtx, req, atEpoch)
		if f != nil {
			if err != nil {
				f.publish("epoch-error", ErrorEnvelope{Error: errorBody(nil, err)})
			} else {
				f.publish("epoch-end", resp)
			}
		}
		return resp, err
	})
	if err != nil {
		return nil, err
	}
	resp := *v.(*ReconfigureResponse)
	resp.Cached = cached
	return resp, nil
}

// Sessions reports the live topology-session names (diagnostics).
func (s *Server) Sessions() []string {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
