package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lhg"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

// Live progress streaming (Server-Sent Events).
//
// GET /v1/verify?stream&constraint=C&n=N&k=K[&seed=S][&workers=W]
// [&properties=P1,P2] opens a text/event-stream of one verification
// campaign. The first watcher of a given verify key launches the
// campaign; every later watcher — up to the whole burst — subscribes to
// the SAME feed, and the campaign itself coalesces with any concurrent
// POST /v1/verify through the ordinary singleflight, so 64 streaming
// clients still cost exactly one verification. The stream carries:
//
//	start       {key, trace_id}           once, first event
//	span-start  trace.Event               per span (tracing enabled)
//	span-end    trace.Event               per span (tracing enabled)
//	point       trace.Event               probe progress, cache decisions
//	result      VerifyResponse            on success
//	error       {error}                   on failure
//	done        {}                        always last
//
// plus `: hb` comment heartbeats every Options.StreamHeartbeat. Closing
// the connection unsubscribes; when the LAST watcher of an unfinished
// campaign disconnects, the campaign is cancelled through the same
// refcounted path a coalesced POST uses.
//
// GET /v1/reconfigure?stream&session=NAME watches a live topology
// session: every reconfigure campaign of the session publishes
// epoch-start / (span events) / epoch-end|epoch-error while the stream
// stays open across epochs.
var (
	mStreamOpened  = obs.NewCounter("serve.stream.opened")
	mStreamClosed  = obs.NewCounter("serve.stream.closed")
	mStreamEvents  = obs.NewCounter("serve.stream.events")
	mStreamDropped = obs.NewCounter("serve.stream.dropped")
	gStreamSubs    = obs.NewGauge("serve.stream.subscribers")

	streamSubs atomic.Int64 // live subscriber count behind the gauge
)

// streamEvent is one SSE frame: an event name plus a JSON-encoded body.
type streamEvent struct {
	name string
	data []byte
}

// feed is one broadcast channel of streamEvents with late-join replay.
// Publishing never blocks: a subscriber that stops draining its buffered
// channel loses events (counted), not the campaign.
type feed struct {
	mu         sync.Mutex
	subs       map[chan streamEvent]struct{}
	history    []streamEvent
	historyCap int // 0 disables replay (session feeds)
	closed     bool
	cancel     context.CancelFunc // campaign-owned feeds; nil for session feeds
	onEmpty    func()             // called when the last subscriber leaves
}

func newFeed(historyCap int) *feed {
	return &feed{subs: make(map[chan streamEvent]struct{}), historyCap: historyCap}
}

// publish marshals v and fans the event out to every subscriber.
func (f *feed) publish(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	ev := streamEvent{name: name, data: data}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	if f.historyCap > 0 && len(f.history) < f.historyCap {
		f.history = append(f.history, ev)
	}
	mStreamEvents.Inc()
	for ch := range f.subs {
		select {
		case ch <- ev:
		default:
			mStreamDropped.Inc()
		}
	}
}

// traceEmitter adapts the feed to a trace.Emitter: span lifecycle events
// stream under their trace.Event type names.
func (f *feed) traceEmitter() trace.Emitter {
	return func(ev trace.Event) { f.publish(ev.Type, ev) }
}

// close publishes the final done event and detaches every subscriber.
func (f *feed) close() {
	f.publish("done", struct{}{})
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for ch := range f.subs {
		close(ch)
	}
	f.subs = nil
}

// subscribe registers a new watcher and returns its channel plus the
// replayed history. A watcher that found the feed just as its campaign
// ended still gets the whole campaign when the history holds it through
// the done event: the replay, then an already-closed channel. Any other
// closed feed returns ok=false.
func (f *feed) subscribe() (ch chan streamEvent, replay []streamEvent, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		if n := len(f.history); n == 0 || f.history[n-1].name != "done" {
			return nil, nil, false
		}
		ch = make(chan streamEvent)
		close(ch)
		return ch, append([]streamEvent(nil), f.history...), true
	}
	ch = make(chan streamEvent, 256)
	f.subs[ch] = struct{}{}
	return ch, append([]streamEvent(nil), f.history...), true
}

// unsubscribe detaches a watcher. The last watcher to leave an
// unfinished campaign cancels it and fires onEmpty.
func (f *feed) unsubscribe(ch chan streamEvent) {
	f.mu.Lock()
	if _, live := f.subs[ch]; live {
		delete(f.subs, ch)
	}
	last := len(f.subs) == 0 && !f.closed
	cancel, onEmpty := f.cancel, f.onEmpty
	f.mu.Unlock()
	if !last {
		return
	}
	if cancel != nil {
		cancel()
	}
	if onEmpty != nil {
		onEmpty()
	}
}

// parse ---------------------------------------------------------------------

// parseVerifyQuery maps the GET ?stream query parameters onto the same
// VerifyRequest the POST body carries.
func parseVerifyQuery(r *http.Request) (*VerifyRequest, error) {
	q := r.URL.Query()
	req := &VerifyRequest{}
	req.Constraint = q.Get("constraint")
	var err error
	if req.N, err = queryInt(q.Get("n")); err != nil {
		return nil, fmt.Errorf("serve: bad n: %v", err)
	}
	if req.K, err = queryInt(q.Get("k")); err != nil {
		return nil, fmt.Errorf("serve: bad k: %v", err)
	}
	if v := q.Get("workers"); v != "" {
		if req.Workers, err = queryInt(v); err != nil {
			return nil, fmt.Errorf("serve: bad workers: %v", err)
		}
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: bad seed: %v", err)
		}
		req.Seed = &seed
	}
	if v := q.Get("properties"); v != "" {
		req.Properties = strings.Split(v, ",")
	}
	return req, nil
}

func queryInt(v string) (int, error) {
	if v == "" {
		return 0, fmt.Errorf("missing")
	}
	return strconv.Atoi(v)
}

// handlers ------------------------------------------------------------------

// handleVerifyStream serves GET /v1/verify?stream.
func (s *Server) handleVerifyStream(w http.ResponseWriter, r *http.Request) {
	done := s.track(epVerify)
	req, err := parseVerifyQuery(r)
	if err != nil {
		done(true)
		writeError(w, r, badRequest(err))
		return
	}
	c, err := req.validate()
	if err != nil {
		done(true)
		writeError(w, r, badRequest(err))
		return
	}
	props, err := parseProperties(req.Properties)
	if err != nil {
		done(true)
		writeError(w, r, badRequest(err))
		return
	}
	key := verifyKey(req.graphKey(c), props)
	f := s.verifyFeed(key, c, req, props)
	s.serveStream(w, r, f)
	done(false)
}

// verifyFeed returns the live feed for a streamed verify key, launching
// the campaign goroutine when this watcher is the first.
func (s *Server) verifyFeed(key string, c lhg.Constraint, req *VerifyRequest, props lhg.Properties) *feed {
	s.feedMu.Lock()
	if f, ok := s.verifyFeeds[key]; ok {
		s.feedMu.Unlock()
		return f
	}
	f := newFeed(1024)
	ctx, cancel := context.WithCancel(s.base)
	f.cancel = cancel
	s.verifyFeeds[key] = f
	s.feedMu.Unlock()

	go func() {
		defer func() {
			s.feedMu.Lock()
			if s.verifyFeeds[key] == f {
				delete(s.verifyFeeds, key)
			}
			s.feedMu.Unlock()
			f.close()
			cancel()
		}()
		// The campaign's trace feeds the stream: phase spans, worker probe
		// batches and cache decisions arrive as they happen. The emitter is
		// attached after the start event and detached before the root ends,
		// so start stays the first frame and only campaign spans stream.
		ctx, sp := trace.StartRoot(ctx, "verify.stream")
		traceID := ""
		if sp.Live() {
			traceID = sp.TraceID().String()
		}
		f.publish("start", map[string]any{"key": key, "trace_id": traceID})
		defer sp.End()
		if sp.Live() {
			remove := sp.Trace().AddEmitter(f.traceEmitter())
			defer remove()
		}

		g, _, err := s.getGraph(ctx, c, &req.BuildRequest)
		if err != nil {
			f.publish("error", ErrorEnvelope{Error: errorBody(nil, err)})
			return
		}
		workers := clampRequestWorkers(req.Workers, s.workers)
		v, cached, err := s.compute(ctx, epVerify, key, persistVerify, func(runCtx context.Context) (any, error) {
			return lhg.Verify(runCtx, g, req.K, lhg.WithWorkers(workers),
				lhg.WithProperties(props))
		})
		if err != nil {
			f.publish("error", ErrorEnvelope{Error: errorBody(nil, err)})
			return
		}
		report := v.(*lhg.Report)
		f.publish("result", VerifyResponse{
			Constraint: c.String(), N: req.N, K: req.K, Seed: req.Seed,
			Cached: cached, IsLHG: report.IsLHG(), Report: report,
		})
		s.log.InfoContext(ctx, "streamed verify finished",
			"key", key, "cached", cached, "is_lhg", report.IsLHG())
	}()
	return f
}

// handleReconfigureStream serves GET /v1/reconfigure?stream&session=NAME.
func (s *Server) handleReconfigureStream(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("session")
	if strings.TrimSpace(name) == "" {
		writeError(w, r, badRequest(fmt.Errorf("serve: stream needs a session name")))
		return
	}
	s.sessMu.Lock()
	_, known := s.sessions[name]
	s.sessMu.Unlock()
	if !known {
		writeError(w, r, notFound(fmt.Errorf("serve: unknown session %q (%v)", name, errUnknownSession)))
		return
	}
	f := s.sessionFeed(name, true)
	s.serveStream(w, r, f)
}

// sessionFeed returns the event feed of a topology session, creating it
// when create is set (the subscribe path). The publish path passes
// create=false: an unwatched session has no feed and pays nothing.
func (s *Server) sessionFeed(name string, create bool) *feed {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	f, ok := s.sessFeeds[name]
	if !ok && create {
		f = newFeed(0) // live-only: epochs replay poorly, watchers want "from now"
		f.onEmpty = func() {
			s.feedMu.Lock()
			if s.sessFeeds[name] == f {
				delete(s.sessFeeds, name)
			}
			s.feedMu.Unlock()
		}
		s.sessFeeds[name] = f
	}
	return f
}

// serveStream is the shared SSE writer loop: replay, live events,
// heartbeats, disconnect handling.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, f *feed) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, fmt.Errorf("serve: streaming needs a flushing writer"))
		return
	}
	ch, replay, ok := f.subscribe()
	if !ok {
		// The campaign finished between feed lookup and subscribe and its
		// history overflowed; tell the client to re-request (the result is
		// in the cache now).
		writeError(w, r, conflict(fmt.Errorf("serve: stream already completed, retry")))
		return
	}
	mStreamOpened.Inc()
	gStreamSubs.Set(streamSubs.Add(1))
	defer func() {
		f.unsubscribe(ch)
		mStreamClosed.Inc()
		gStreamSubs.Set(streamSubs.Add(-1))
		flusher.Flush()
	}()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	flusher.Flush()

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // feed closed; the done event was already delivered
			}
			writeSSE(w, ev)
			// Drain whatever is already queued before flushing once.
			for more := true; more; {
				select {
				case ev, open := <-ch:
					if !open {
						flusher.Flush()
						return
					}
					writeSSE(w, ev)
				default:
					more = false
				}
			}
			flusher.Flush()
		case <-hb.C:
			fmt.Fprint(w, ": hb\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.base.Done():
			return
		}
	}
}

// writeSSE renders one event in the text/event-stream framing.
func writeSSE(w http.ResponseWriter, ev streamEvent) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
}
