package serve

import (
	"net/http"

	"lhg/internal/obs/trace"
)

// Request tracing. Every request entering the server through Handler()
// gets a root span named after its route; an incoming W3C traceparent
// header joins the caller's trace instead of minting a fresh id, and the
// response always carries both the id (X-Trace-Id, the grep handle) and a
// standards-shaped Traceparent header naming the server-side span, so a
// client can stitch the hop into its own trace. When tracing is disabled
// the middleware is a single atomic load.

// traced wraps next with the per-request root span and structured access
// log.
func (s *Server) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !trace.Enabled() {
			next.ServeHTTP(w, r)
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
		next.ServeHTTP(w, r.WithContext(ctx))
		d := sp.End()
		s.log.DebugContext(ctx, "request",
			"method", r.Method, "path", r.URL.Path,
			"dur_ms", float64(d)/1e6)
	})
}
