package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouteAccounting pins the per-request accounting of every timed
// route: track counts each request once, a 200 lands exactly one
// observation in the route's latency histogram (the request's one clock),
// and a 400 counts one error and no latency. The handler runs
// synchronously on a recorder, so the deltas are read after done ran.
func TestRouteAccounting(t *testing.T) {
	h := New(Options{CacheSize: 16}).Handler()
	cases := []struct {
		name     string
		ep       endpoint
		method   string
		target   string
		ok, bad  string // request bodies (POST) of the 200 and 400 requests
		badQuery string // GET: the 400 target
	}{
		{name: "build", ep: epBuild, method: http.MethodPost, target: "/v1/build",
			ok: `{"constraint":"kdiamond","n":20,"k":3}`, bad: `{"constraint":`},
		{name: "verify", ep: epVerify, method: http.MethodPost, target: "/v1/verify",
			ok: `{"constraint":"ktree","n":21,"k":3}`, bad: `{"constraint":"ktree","n":21,"k":3,"properties":["P9"]}`},
		{name: "verify?batch", ep: epVerify, method: http.MethodPost, target: "/v1/verify?batch",
			ok: `[{"constraint":"ktree","n":14,"k":3},{"constraint":"kdiamond","n":16,"k":3}]`, bad: `[]`},
		{name: "verify?stream", ep: epVerify, method: http.MethodGet,
			target:   "/v1/verify?stream&constraint=kdiamond&n=18&k=3",
			badQuery: "/v1/verify?stream&constraint=kdiamond&n=many&k=3"},
		{name: "flood", ep: epFlood, method: http.MethodPost, target: "/v1/flood",
			ok: `{"constraint":"kdiamond","n":20,"k":3}`, bad: `{"constraint":"kdiamond","n":20,"k":3,"bogus":1}`},
		{name: "budget", ep: epBudget, method: http.MethodGet,
			target:   "/v1/budget?constraint=ktree&n=14&k=3&source=0",
			badQuery: "/v1/budget?constraint=ktree&k=3"},
		{name: "reconfigure", ep: epReconfig, method: http.MethodPost, target: "/v1/reconfigure",
			ok: `{"session":"acct","constraint":"ktree","n":14,"k":3,"joins":2}`, bad: `not json`},
	}
	serve := func(method, target, body string) int {
		var req *http.Request
		if method == http.MethodPost {
			req = httptest.NewRequest(method, target, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
		} else {
			req = httptest.NewRequest(method, target, nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	type counts struct{ requests, errors, latency int64 }
	read := func(ep endpoint) counts {
		return counts{ep.requests.Value(), ep.errors.Value(), ep.latency.Count()}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := read(tc.ep)
			if code := serve(tc.method, tc.target, tc.ok); code != http.StatusOK {
				t.Fatalf("status = %d, want 200", code)
			}
			after := read(tc.ep)
			if got, want := after, (counts{before.requests + 1, before.errors, before.latency + 1}); got != want {
				t.Fatalf("200: (requests, errors, latency count) = %v, want %v", got, want)
			}

			badTarget := tc.target
			if tc.method == http.MethodGet {
				badTarget = tc.badQuery
			}
			before = after
			if code := serve(tc.method, badTarget, tc.bad); code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", code)
			}
			after = read(tc.ep)
			if got, want := after, (counts{before.requests + 1, before.errors + 1, before.latency}); got != want {
				t.Fatalf("400: (requests, errors, latency count) = %v, want %v", got, want)
			}
		})
	}
}
