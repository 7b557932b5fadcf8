package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lhg"
	"lhg/internal/obs"
)

// GET /v1/budget — the retry-amplification analyzer as a service.
//
// The endpoint prices the reliable flood's f ≤ k−1 delivery guarantee for
// one (graph, source, retry-policy) triple: the full ampguard report (path
// families, compound amplification, frame ceiling, worst-case latency) plus
// the derived runtime guard netflood would enforce. Results are cached and
// persisted under the same key scheme as every other endpoint — the policy
// folds into the key — so a fleet prices each triple once.
var (
	mReqBudget  = obs.NewCounter("serve.budget.requests")
	mErrBudget  = obs.NewCounter("serve.budget.errors")
	mHitBudget  = obs.NewCounter("serve.budget.cache.hits")
	mMissBudget = obs.NewCounter("serve.budget.cache.misses")
	hLatBudget  = obs.NewHistogram("serve.budget.latency_us", latencyBounds...)

	epBudget = endpoint{mReqBudget, mErrBudget, mHitBudget, mMissBudget, hLatBudget}
)

// BudgetRequest selects one amplification analysis: the graph key fields
// plus the flood source and the retry policy being priced. Policy fields
// left unset take the netflood reliable-mode defaults.
type BudgetRequest struct {
	BuildRequest
	Source  int             `json:"source"`
	Policy  lhg.RetryPolicy `json:"policy"`
	Workers int             `json:"workers,omitempty"`
}

// BudgetResponse carries the analysis and its enforcement plan.
type BudgetResponse struct {
	Constraint string            `json:"constraint"`
	N          int               `json:"n"`
	K          int               `json:"k"`
	Seed       *uint64           `json:"seed,omitempty"`
	Source     int               `json:"source"`
	Cached     bool              `json:"cached"`
	Policy     lhg.RetryPolicy   `json:"policy"`
	Report     *lhg.BudgetReport `json:"report"`
	Guard      lhg.StormGuard    `json:"guard"`
}

func (br *BudgetRequest) check() error {
	if _, err := br.validate(); err != nil {
		return err
	}
	if br.Source < 0 || br.Source >= br.N {
		return fmt.Errorf("serve: source %d outside [0,%d)", br.Source, br.N)
	}
	return nil
}

// budgetKey folds the policy into the cache key: distinct policies price
// distinctly, identical ones (across the whole fleet) share one analysis.
func budgetKey(graphKey string, source int, p lhg.RetryPolicy) string {
	return fmt.Sprintf("budget|%s|src=%d|t=%d|b=%d|m=%d|r=%d|j=%g",
		graphKey, source, p.Timeout.Nanoseconds(), p.Base.Nanoseconds(),
		p.Max.Nanoseconds(), p.Retries, p.Jitter)
}

// parseBudgetQuery maps GET query parameters onto a BudgetRequest: the
// graph selectors, source, and the policy knobs retries / timeout_ms /
// base_ms / max_ms / jitter (defaults: the netflood reliable policy).
func parseBudgetQuery(r *http.Request) (*BudgetRequest, error) {
	q := r.URL.Query()
	req := &BudgetRequest{Policy: lhg.DefaultRetryPolicy()}
	req.Constraint = q.Get("constraint")
	var err error
	if req.N, err = queryInt(q.Get("n")); err != nil {
		return nil, fmt.Errorf("serve: bad n: %v", err)
	}
	if req.K, err = queryInt(q.Get("k")); err != nil {
		return nil, fmt.Errorf("serve: bad k: %v", err)
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: bad seed: %v", err)
		}
		req.Seed = &seed
	}
	if v := q.Get("source"); v != "" {
		if req.Source, err = queryInt(v); err != nil {
			return nil, fmt.Errorf("serve: bad source: %v", err)
		}
	}
	if v := q.Get("retries"); v != "" {
		if req.Policy.Retries, err = queryInt(v); err != nil {
			return nil, fmt.Errorf("serve: bad retries: %v", err)
		}
	}
	for _, knob := range []struct {
		name string
		dst  *time.Duration
	}{
		{"timeout_ms", &req.Policy.Timeout},
		{"base_ms", &req.Policy.Base},
		{"max_ms", &req.Policy.Max},
	} {
		if v := q.Get(knob.name); v != "" {
			ms, err := queryInt(v)
			if err != nil {
				return nil, fmt.Errorf("serve: bad %s: %v", knob.name, err)
			}
			*knob.dst = time.Duration(ms) * time.Millisecond
		}
	}
	if v := q.Get("jitter"); v != "" {
		if req.Policy.Jitter, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, fmt.Errorf("serve: bad jitter: %v", err)
		}
	}
	return req, nil
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.notAllowed(w, r, http.MethodGet)
		return
	}
	runQuery(s, epBudget, w, r, parseBudgetQuery, func(ctx context.Context, req *BudgetRequest) (any, error) {
		c, _ := req.validate() // checked by the pipeline
		g, _, err := s.getGraph(ctx, c, &req.BuildRequest)
		if err != nil {
			return nil, err
		}
		key := budgetKey(req.graphKey(c), req.Source, req.Policy)
		v, cached, err := s.compute(ctx, epBudget, key, persistBudget, func(runCtx context.Context) (any, error) {
			return lhg.FloodBudget(runCtx, g, req.Source, req.K, req.Policy)
		})
		if err != nil {
			if _, code := classify(err); code == CodeInternal {
				// Analyzer rejections (bad policy, bad source) are the
				// caller's parameters, not a server fault.
				return nil, badRequest(err)
			}
			return nil, err
		}
		report := v.(*lhg.BudgetReport)
		return BudgetResponse{
			Constraint: c.String(), N: req.N, K: req.K, Seed: req.Seed,
			Source: req.Source, Cached: cached, Policy: req.Policy,
			Report: report, Guard: report.Guard(),
		}, nil
	})
}
