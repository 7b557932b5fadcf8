package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

// POST /v1/verify?batch — the coalescing batch API.
//
// The body is either a plain array of VerifyRequest objects or a sweep
// spec whose n/k lists expand to their cross product:
//
//	[{"constraint":"ktree","n":12,"k":3}, ...]
//	{"constraint":"ktree","n":[8,12,16],"k":[2,3]}
//
// All items run as ONE pipelined campaign under the request's single trace
// root: items fan out concurrently (bounded), identical items coalesce
// through the ordinary singleflight — in-process and, with a store
// attached, fleet-wide — and each item reports its own result or error
// envelope, so one bad item never fails the sweep. On a shard frontend the
// same body is split by ring ownership and fanned out backend-by-backend
// (see proxy.go).
var (
	mBatchRequests = obs.NewCounter("serve.batch.requests")
	mBatchItems    = obs.NewCounter("serve.batch.items")
	mBatchFailed   = obs.NewCounter("serve.batch.failed")
)

// maxBatchItems caps one batch after sweep expansion.
const maxBatchItems = 4096

// batchFan bounds the concurrently running items of one batch.
const batchFan = 8

// SweepSpec is the compact batch form: the cross product of N × K, each
// item sharing the remaining fields.
type SweepSpec struct {
	Constraint string   `json:"constraint"`
	N          []int    `json:"n"`
	K          []int    `json:"k"`
	Seed       *uint64  `json:"seed,omitempty"`
	Properties []string `json:"properties,omitempty"`
	Workers    int      `json:"workers,omitempty"`
}

// BatchItem pairs one expanded request with its outcome: exactly one of
// Response and Error is set.
type BatchItem struct {
	Request  VerifyRequest   `json:"request"`
	Response *VerifyResponse `json:"response,omitempty"`
	Error    *ErrorBody      `json:"error,omitempty"`
}

// BatchResponse reports the whole campaign: per-item outcomes in request
// order plus the aggregate counters and the shared trace root.
type BatchResponse struct {
	Total   int         `json:"total"`
	Failed  int         `json:"failed"`
	Cached  int         `json:"cached"`
	TraceID string      `json:"trace_id,omitempty"`
	Items   []BatchItem `json:"items"`
}

// expand turns the sweep into its item list.
func (sw *SweepSpec) expand() ([]VerifyRequest, error) {
	if len(sw.N) == 0 || len(sw.K) == 0 {
		return nil, fmt.Errorf("serve: sweep needs non-empty n and k lists")
	}
	reqs := make([]VerifyRequest, 0, len(sw.N)*len(sw.K))
	for _, n := range sw.N {
		for _, k := range sw.K {
			req := VerifyRequest{Workers: sw.Workers, Properties: sw.Properties}
			req.Constraint = sw.Constraint
			req.N = n
			req.K = k
			req.Seed = sw.Seed
			reqs = append(reqs, req)
		}
	}
	return reqs, nil
}

// decodeBatch reads the body and expands it into the item list, accepting
// both batch forms (the first non-space byte disambiguates).
func decodeBatch(r *http.Request) ([]VerifyRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxRequestBody))
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("serve: empty batch body")
	}
	var reqs []VerifyRequest
	if trimmed[0] == '[' {
		if err := strictUnmarshal(trimmed, &reqs); err != nil {
			return nil, err
		}
	} else {
		var sw SweepSpec
		if err := strictUnmarshal(trimmed, &sw); err != nil {
			return nil, err
		}
		if reqs, err = sw.expand(); err != nil {
			return nil, err
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: batch expanded to zero items")
	}
	if len(reqs) > maxBatchItems {
		return nil, fmt.Errorf("serve: batch of %d items exceeds the %d cap", len(reqs), maxBatchItems)
	}
	return reqs, nil
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// runBatch executes the expanded items as one campaign: bounded fan-out,
// per-item outcomes, shared trace root from ctx. Item validation happens
// inside verifyOne, so a malformed item yields its own error envelope
// without touching its siblings.
func (s *Server) runBatch(ctx context.Context, reqs []VerifyRequest) *BatchResponse {
	resp := &BatchResponse{Total: len(reqs), Items: make([]BatchItem, len(reqs))}
	if sp := trace.FromContext(ctx); sp.Live() {
		resp.TraceID = sp.TraceID().String()
	}
	sem := make(chan struct{}, batchFan)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			item := &resp.Items[i]
			item.Request = reqs[i]
			out, err := s.verifyOne(ctx, &reqs[i])
			if err != nil {
				body := errorBody(nil, err)
				item.Error = &body
				return
			}
			item.Response = out
		}(i)
	}
	wg.Wait()
	for i := range resp.Items {
		switch {
		case resp.Items[i].Error != nil:
			resp.Failed++
		case resp.Items[i].Response.Cached:
			resp.Cached++
		}
	}
	mBatchItems.Add(int64(resp.Total))
	mBatchFailed.Add(int64(resp.Failed))
	return resp
}

// handleVerifyBatch serves POST /v1/verify?batch on a backend (or
// standalone) server; the shard frontend intercepts the route in proxy.go.
func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	done := s.track(epVerify)
	mBatchRequests.Inc()
	reqs, err := decodeBatch(r)
	if err != nil {
		done(true)
		writeError(w, r, badRequest(err))
		return
	}
	resp := s.runBatch(r.Context(), reqs)
	done(false)
	writeJSON(w, http.StatusOK, resp)
}
