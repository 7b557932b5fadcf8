package serve

import (
	"context"
	"encoding/json"
	"net/http"
)

// One generic request pipeline — decode, validate, compute, envelope —
// shared by every /v1 route. Before this helper each handler hand-rolled
// the same dozen lines (and drifted: different error shapes, inconsistent
// Allow headers); now a route is its compute function plus a registration
// line, and the envelope/metrics/tracing behavior is uniform by
// construction.

// maxRequestBody bounds any /v1 request body. Batch sweeps are the largest
// legitimate payload and fit comfortably.
const maxRequestBody = 8 << 20

// validatable is implemented by request types that self-validate after
// decoding; the helper rejects a failing check as 400 bad_request.
type validatable interface{ check() error }

// decodeJSON strictly decodes r's JSON body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// runJSON is the POST pipeline: decode the body into a fresh Req, run its
// check, hand it to fn, and write the 200 result or the error envelope.
// fn returns either the response value or an error already carrying (or
// classifiable to) its status and code.
func runJSON[Req any](s *Server, ep endpoint, w http.ResponseWriter, r *http.Request,
	fn func(ctx context.Context, req *Req) (any, error)) {
	done := s.track(ep)
	var req Req
	if err := decodeJSON(r, &req); err != nil {
		done(true)
		writeError(w, r, badRequest(err))
		return
	}
	runChecked(s, w, r, &req, fn, done)
}

// runQuery is the GET pipeline: parse maps the query string onto a Req
// (the same shape a POST body would carry), then the flow matches runJSON.
func runQuery[Req any](s *Server, ep endpoint, w http.ResponseWriter, r *http.Request,
	parse func(r *http.Request) (*Req, error),
	fn func(ctx context.Context, req *Req) (any, error)) {
	done := s.track(ep)
	req, err := parse(r)
	if err != nil {
		done(true)
		writeError(w, r, badRequest(err))
		return
	}
	runChecked(s, w, r, req, fn, done)
}

func runChecked[Req any](s *Server, w http.ResponseWriter, r *http.Request, req *Req,
	fn func(ctx context.Context, req *Req) (any, error),
	done func(failed bool)) {
	if v, ok := any(req).(validatable); ok {
		if err := v.check(); err != nil {
			done(true)
			writeError(w, r, badRequest(err))
			return
		}
	}
	resp, err := fn(r.Context(), req)
	if err != nil {
		done(true)
		writeError(w, r, err)
		return
	}
	done(false)
	writeJSON(w, http.StatusOK, resp)
}
