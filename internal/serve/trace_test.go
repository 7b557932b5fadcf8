package serve

import (
	"bytes"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

// TestTracedResponseCarriesIDs: every response minted under tracing
// carries X-Trace-Id plus a Traceparent naming the server-side span, and
// the recorder holds the full request tree — http root, serve.campaign,
// lhg.Verify and the check phases — under that one trace id.
func TestTracedResponseCarriesIDs(t *testing.T) {
	trace.DefaultRecorder.Reset()
	ts := newTestServer(t, Options{CacheSize: 16})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json",
		bytes.NewBufferString(`{"constraint":"kdiamond","n":57,"k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-Id %q, want 32 hex chars", traceID)
	}
	tp := resp.Header.Get("Traceparent")
	tid, _, ok := trace.ParseTraceparent(tp)
	if !ok || tid.String() != traceID {
		t.Fatalf("Traceparent %q does not match X-Trace-Id %q", tp, traceID)
	}

	raw, err := hex.DecodeString(traceID)
	if err != nil {
		t.Fatal(err)
	}
	var id trace.TraceID
	copy(id[:], raw)
	recs := trace.DefaultRecorder.TraceRecords(id)
	names := make(map[string]bool, len(recs))
	var rootNs, phaseNs int64
	for _, r := range recs {
		names[r.Name] = true
		switch {
		case strings.HasPrefix(r.Name, "http "):
			rootNs = int64(r.Dur)
		case strings.HasPrefix(r.Name, "check."):
			phaseNs += int64(r.Dur)
		}
	}
	for _, want := range []string{"http /v1/verify", "serve.campaign", "lhg.Verify", "check.kappa", "check.lambda"} {
		if !names[want] {
			t.Fatalf("trace %s missing span %q; have %v", traceID, want, names)
		}
	}
	// The phase spans live inside the request: their summed wall time can
	// never exceed the root's (tolerance absorbs clock granularity).
	if rootNs == 0 {
		t.Fatal("http root span has zero duration")
	}
	if phaseNs > rootNs+rootNs/20 {
		t.Fatalf("check phases sum to %dns, more than the %dns request", phaseNs, rootNs)
	}
}

// TestTracedJoinsCallerTrace: a request with a W3C traceparent header
// continues the caller's trace instead of minting a fresh id.
func TestTracedJoinsCallerTrace(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/build",
		bytes.NewBufferString(`{"constraint":"kdiamond","n":20,"k":3}`))
	req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != callerTrace {
		t.Fatalf("X-Trace-Id %q, want caller trace %q", got, callerTrace)
	}
	// The response traceparent names a server-side span, not the caller's.
	tid, sid, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || tid.String() != callerTrace {
		t.Fatalf("response traceparent %q not in caller trace", resp.Header.Get("Traceparent"))
	}
	if sid.String() == "00f067aa0ba902b7" {
		t.Fatal("response span id echoes the caller's span")
	}
}

// TestDebugTraceEndpoint: the flight recorder export serves the Chrome
// trace_event JSON for one trace id.
func TestDebugTraceEndpoint(t *testing.T) {
	trace.DefaultRecorder.Reset()
	ts := newTestServer(t, Options{CacheSize: 16})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json",
		bytes.NewBufferString(`{"constraint":"kdiamond","n":59,"k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")

	req := httptest.NewRequest(http.MethodGet, "/debug/trace?trace="+traceID, nil)
	rec := httptest.NewRecorder()
	trace.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"check.kappa", "serve.campaign", `"ph":"X"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/trace export missing %q", want)
		}
	}
}

// TestAccessLogWithoutTracing: with tracing off, a Debug logger still gets
// exactly one request line per request, with method, path and duration,
// and an Info logger gets none.
func TestAccessLogWithoutTracing(t *testing.T) {
	trace.Disable()
	t.Cleanup(trace.Enable)
	for _, tc := range []struct {
		level slog.Level
		lines int
	}{{slog.LevelDebug, 2}, {slog.LevelInfo, 0}} {
		var buf bytes.Buffer // read only after ts.Close waits for the handlers
		ts := newTestServer(t, Options{CacheSize: 16, Logger: obs.NewLogger(&buf, tc.level)})
		for range 2 {
			resp, err := http.Post(ts.URL+"/v1/build", "application/json",
				bytes.NewBufferString(`{"constraint":"kdiamond","n":20,"k":3}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		ts.Close()
		var got int
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.Contains(line, "msg=request") {
				continue
			}
			got++
			for _, want := range []string{"method=POST", "path=/v1/build", "dur_ms="} {
				if !strings.Contains(line, want) {
					t.Fatalf("level %v: access line %q lacks %q", tc.level, line, want)
				}
			}
		}
		if got != tc.lines {
			t.Fatalf("level %v: %d access lines, want %d:\n%s", tc.level, got, tc.lines, buf.String())
		}
	}
}
