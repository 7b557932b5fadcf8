package serve

import (
	"log/slog"
	"net/http"
	"time"

	"lhg/internal/obs/trace"
)

// Request tracing. Every request entering the server through Handler()
// gets a root span named after its route; an incoming W3C traceparent
// header joins the caller's trace instead of minting a fresh id, and the
// response always carries both the id (X-Trace-Id, the grep handle) and a
// standards-shaped Traceparent header naming the server-side span, so a
// client can stitch the hop into its own trace. When tracing is disabled
// and the logger drops Debug records the middleware reads no clock and
// makes no log call.

// traced wraps next with the per-request root span and structured access
// log. The access log writes one Debug line per request whether or not
// tracing is on; without tracing the request is timed by the clock.
func (s *Server) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !trace.Enabled() {
			if !s.log.Enabled(r.Context(), slog.LevelDebug) {
				next.ServeHTTP(w, r)
				return
			}
			t0 := time.Now()
			next.ServeHTTP(w, r)
			s.logRequest(r, time.Since(t0))
			return
		}
		var opts []trace.RootOption
		if tid, sid, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
			opts = append(opts, trace.WithParent(tid, sid))
		}
		ctx, sp := trace.StartRoot(r.Context(), "http "+r.URL.Path, opts...)
		if sp.Live() {
			sp.SetAttr(trace.Str("method", r.Method))
			w.Header().Set("X-Trace-Id", sp.TraceID().String())
			w.Header().Set("Traceparent", trace.Traceparent(sp.TraceID(), sp.ID()))
		}
		r = r.WithContext(ctx)
		next.ServeHTTP(w, r)
		s.logRequest(r, sp.End())
	})
}

// logRequest writes the access-log line of one request that took d.
func (s *Server) logRequest(r *http.Request, d time.Duration) {
	s.log.DebugContext(r.Context(), "request",
		"method", r.Method, "path", r.URL.Path,
		"dur_ms", float64(d)/1e6)
}
