package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"lhg"
	"lhg/internal/obs"
	"lhg/internal/serve"
	"lhg/internal/store"
)

// serve-mix: an in-process serve.Server with a fresh report store and an
// LRU smaller than the hot set, driven in an open loop over loopback HTTP
// with at most nproc connections. Arrivals follow a seeded schedule at each
// rate of smLadder in turn, each after a closed-loop segment that times
// latency_p50_ms; every rate runs. The top rate is twice what the server
// sustains on two cores (about 3000 rps), so the rate it completes that
// rate's requests at is its own throughput, not the offered load: that is
// ops_per_s. The traced run holds smRefRate instead.
var smLadder = []float64{100, 200, 400, 800, 1600, 3200, 4800, 6400}

const (
	smRefRate  = 100 // rps: the traced run's rate, where the server idles between requests
	smCache    = 64  // LRU entries; the hot set has 150 results plus 30 graphs
	smGrace    = 10 * time.Second
	smSpin     = time.Millisecond
	smColdP    = 0.02 // share of arrivals asking for a never-seen key
	smBurstGap = 1500 * time.Millisecond
	smBurst    = 6 // identical cold requests due at the same instant
	smZipfS    = 1.1
)

var (
	smSizes       = []int{32, 64, 128, 256, 512}
	smConstraints = []string{"ktree", "kdiamond"}
)

// smReq is one request of the mix. key names its result for the oracle:
// equal keys must get equal answers.
type smReq struct {
	route    string // verify, flood, build or budget
	c        string
	n, k     int
	seed     *uint64
	source   int
	failures []int
	key      string
}

func (r *smReq) httpRequest(ctx context.Context, base string) (*http.Request, error) {
	if r.route == "budget" {
		return http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/budget?constraint=%s&n=%d&k=%d&source=%d", base, r.c, r.n, r.k, r.source), nil)
	}
	body := map[string]any{"constraint": r.c, "n": r.n, "k": r.k}
	if r.seed != nil {
		body["seed"] = *r.seed
	}
	if r.route == "flood" {
		body["source"] = r.source
		body["failures"] = map[string]any{"nodes": r.failures}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/"+r.route, bytes.NewReader(data))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

func graphKey(c string, n, k int, seed *uint64) string {
	if seed != nil {
		return fmt.Sprintf("%s/n=%d/k=%d/seed=%d", c, n, k, *seed)
	}
	return fmt.Sprintf("%s/n=%d/k=%d", c, n, k)
}

// smUniverse is the hot key set of one seed: every (constraint, n, k)
// graph ranked by a seeded popularity order, with two flood variants and
// one budget source per graph.
type smUniverse struct {
	graphs []*smReq // verify requests, one per graph, in popularity order
	floods [][2]*smReq
	builds []*smReq
	budget []*smReq
	cdf    []float64 // Zipf over graph rank
}

func newUniverse(seed uint64) *smUniverse {
	rng := seededRNG(seed, 0x7365727665)
	u := &smUniverse{}
	// The seed orders the graphs of each size, but rank r always holds one
	// of size smSizes[r mod len(smSizes)]: a request's cost grows with n,
	// and a seed that made the largest graphs the most popular would move
	// the throughput by more than the bound.
	groups := make([][]*smReq, len(smSizes))
	for i, n := range smSizes {
		for _, c := range smConstraints {
			for k := 3; k <= 5; k++ {
				groups[i] = append(groups[i], &smReq{route: "verify", c: c, n: n, k: k})
			}
		}
		rng.Shuffle(len(groups[i]), func(a, b int) { groups[i][a], groups[i][b] = groups[i][b], groups[i][a] })
	}
	for r := range groups[0] {
		for i := range groups {
			u.graphs = append(u.graphs, groups[i][r])
		}
	}
	total := 0.0
	for i, g := range u.graphs {
		g.key = "verify/" + graphKey(g.c, g.n, g.k, nil)
		var fl [2]*smReq
		for v := range fl {
			src := rng.IntN(g.n)
			fl[v] = &smReq{route: "flood", c: g.c, n: g.n, k: g.k, source: src, failures: failedNodes(rng, g.n, g.k-1, src)}
			fl[v].key = fmt.Sprintf("flood/%s/src=%d/fail=%v", graphKey(g.c, g.n, g.k, nil), src, fl[v].failures)
		}
		u.floods = append(u.floods, fl)
		u.builds = append(u.builds, &smReq{route: "build", c: g.c, n: g.n, k: g.k, key: "build/" + graphKey(g.c, g.n, g.k, nil)})
		src := rng.IntN(g.n)
		u.budget = append(u.budget, &smReq{route: "budget", c: g.c, n: g.n, k: g.k, source: src,
			key: fmt.Sprintf("budget/%s/src=%d", graphKey(g.c, g.n, g.k, nil), src)})
		total += 1 / math.Pow(float64(i+1), smZipfS)
		u.cdf = append(u.cdf, total)
	}
	for i := range u.cdf {
		u.cdf[i] /= total
	}
	return u
}

// failedNodes draws f distinct nodes other than src.
func failedNodes(rng *rand.Rand, n, f, src int) []int {
	out := make([]int, 0, f)
	for len(out) < f {
		v := rng.IntN(n)
		if v == src || contains(out, v) {
			continue
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// hot returns every key of the hot set once, for the warm-up.
func (u *smUniverse) hot() []*smReq {
	var out []*smReq
	for i := range u.graphs {
		out = append(out, u.graphs[i], u.floods[i][0], u.floods[i][1], u.builds[i], u.budget[i])
	}
	return out
}

// pick draws one request of the mix: 55% verify, 25% flood, 10% build,
// 10% budget over Zipf-popular graphs, or with probability smColdP a
// verification of a seeded variant nobody asked for before.
func (u *smUniverse) pick(rng *rand.Rand, cold func() *smReq) *smReq {
	if rng.Float64() < smColdP {
		return cold()
	}
	g := sort.SearchFloat64s(u.cdf, rng.Float64())
	g = min(g, len(u.graphs)-1)
	switch r := rng.Float64(); {
	case r < 0.55:
		return u.graphs[g]
	case r < 0.80:
		return u.floods[g][rng.IntN(2)]
	case r < 0.90:
		return u.builds[g]
	default:
		return u.budget[g]
	}
}

// smArrival is one scheduled request.
type smArrival struct {
	due time.Duration // after the rung starts
	req *smReq
}

// smRecord is what happened to one arrival. Each is written by the one
// worker that sent it.
type smRecord struct {
	due, sent, done time.Time
	ok, cached      bool
	err             string // why a request failed
}

type serveMix struct {
	cfg     config
	workers int
	uni     *smUniverse
	phase   uint64 // schedules drawn so far; seeds the next one
	coldSeq uint64

	dir    string
	base   context.Context
	cancel context.CancelFunc
	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	mu     sync.Mutex
	bodies map[string]map[[32]byte][]byte // key → distinct 200 bodies
	reqs   map[string]*smReq

	straggle sync.WaitGroup // workers still sending when a rung gave up
	pending  []*smRecord    // records of requests a rung gave up on

	traced  []*smRecord // traced phase, for the per-layer metrics
	tracedQ []*smReq
	lag     []float64
	drainMs float64
	inflMax int64
}

func newServeMix(cfg config) workload {
	return &serveMix{
		cfg: cfg, workers: runtime.NumCPU(), uni: newUniverse(cfg.seed),
		bodies: make(map[string]map[[32]byte][]byte), reqs: make(map[string]*smReq),
	}
}

func (w *serveMix) setup(ctx context.Context, rec *recorder) error {
	tmp := filepath.Join(w.cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	var err error
	if w.dir, err = os.MkdirTemp(tmp, "serve-store-"); err != nil {
		return err
	}
	st, err := store.Open(w.dir)
	if err != nil {
		return err
	}
	w.base, w.cancel = context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := serve.New(serve.Options{BaseContext: w.base, CacheSize: smCache, Workers: verifyWorkers, Store: st}).Handler()
	w.srv = &http.Server{Handler: h, BaseContext: func(net.Listener) context.Context { return w.base }}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: w.workers, MaxIdleConnsPerHost: w.workers, DisableCompression: true,
	}}

	// Warm-up: every hot key once, so the store holds the hot set and the
	// LRU its most recent smCache entries.
	hot := w.uni.hot()
	arr := make([]smArrival, len(hot))
	for i, r := range hot {
		arr[i] = smArrival{req: r}
	}
	recs, _ := w.run(ctx, arr, time.Minute)
	for i, r := range recs {
		if !r.ok {
			return fmt.Errorf("warm-up request %s failed: %s", hot[i].key, r.err)
		}
	}
	return nil
}

// schedule draws the arrivals of one rung: round(rate·d) arrival times
// spread uniformly over d (a Poisson process given its count), plus a
// burst of smBurst identical cold requests every smBurstGap.
func (w *serveMix) schedule(rate float64, d time.Duration) []smArrival {
	rng := w.nextRNG()
	cold := w.coldPicker(rng)
	count := int(math.Round(rate * d.Seconds()))
	arr := make([]smArrival, 0, count+smBurst*int(d/smBurstGap+1))
	for i := 0; i < count; i++ {
		arr = append(arr, smArrival{due: time.Duration(rng.Float64() * float64(d)), req: w.uni.pick(rng, cold)})
	}
	for t := smBurstGap / 2; t < d; t += smBurstGap {
		r := cold()
		for i := 0; i < smBurst; i++ {
			arr = append(arr, smArrival{due: t, req: r})
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].due < arr[j].due })
	return arr
}

// nextRNG returns the generator of the next phase of the run: each rung
// and each closed-loop segment draws its requests from its own stream.
func (w *serveMix) nextRNG() *rand.Rand {
	w.phase++
	return seededRNG(w.cfg.seed, 0x736368656400+w.phase)
}

// coldPicker returns a generator of verifications of seeded graph variants
// nobody asked for before.
func (w *serveMix) coldPicker(rng *rand.Rand) func() *smReq {
	return func() *smReq {
		w.coldSeq++
		seed := w.cfg.seed<<20 | w.coldSeq
		c := smConstraints[rng.IntN(len(smConstraints))]
		n, k := 64<<rng.IntN(2), 3+rng.IntN(2)
		return &smReq{route: "verify", c: c, n: n, k: k, seed: &seed, key: "verify/" + graphKey(c, n, k, &seed)}
	}
}

// run sends the arrivals open-loop: a dispatcher releases each at its due
// time to nproc workers, one connection each. It waits for every response
// up to grace past the last due time; the records of requests still out
// then are kept for finish, which counts them as failed once the drain
// has cut them off. lag is how late the dispatcher released each request.
//
// A sleep overshoots by up to a millisecond (Go's timers wake from a
// millisecond-resolution poll), more than the server takes to answer a
// cached request, so the dispatcher sleeps to within smSpin of each due
// time and yields the processor until it. That keeps one core busy from
// about 1000 rps up: the server's throughput is measured beside a
// generator that takes its share of the machine.
func (w *serveMix) run(ctx context.Context, arr []smArrival, grace time.Duration) (recs []*smRecord, lag []float64) {
	recs = make([]*smRecord, len(arr))
	for i := range recs {
		recs[i] = &smRecord{}
	}
	// Sized to the number of sends, so the dispatcher never blocks and a
	// slow server shows up as queueing delay, not as generator lag.
	queue := make(chan int, len(arr))
	var wg sync.WaitGroup
	for i := 0; i < w.workers; i++ {
		wg.Add(1)
		w.straggle.Add(1)
		go func() {
			defer wg.Done()
			defer w.straggle.Done()
			for idx := range queue {
				w.send(ctx, arr[idx].req, recs[idx])
			}
		}()
	}
	start := time.Now()
	lag = make([]float64, 0, len(arr))
	for i, a := range arr {
		due := start.Add(a.due)
		if d := time.Until(due); d > smSpin {
			time.Sleep(d - smSpin)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		now := time.Now()
		lag = append(lag, ms(max(0, now.Sub(due))))
		recs[i].due = due
		queue <- i
	}
	close(queue)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		w.mu.Lock()
		for _, r := range recs {
			if r.done.IsZero() {
				w.pending = append(w.pending, r)
			}
		}
		w.mu.Unlock()
	}
	return recs, lag
}

// send issues one request and records its outcome and 200 body.
func (w *serveMix) send(ctx context.Context, r *smReq, rec *smRecord) {
	hreq, err := r.httpRequest(ctx, w.url)
	if err != nil {
		w.mu.Lock()
		rec.done, rec.err = time.Now(), err.Error()
		w.mu.Unlock()
		return
	}
	sent := time.Now()
	resp, err := w.client.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	ok := err == nil && resp.StatusCode == http.StatusOK
	why := ""
	if err != nil {
		why = err.Error()
	} else if !ok {
		why = fmt.Sprintf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	if ok {
		sum := sha256.Sum256(body)
		w.mu.Lock()
		if w.bodies[r.key] == nil {
			w.bodies[r.key] = make(map[[32]byte][]byte)
			w.reqs[r.key] = r
		}
		if _, seen := w.bodies[r.key][sum]; !seen {
			w.bodies[r.key][sum] = body
		}
		w.mu.Unlock()
	}
	// The cached flag is a top-level field, written before the payload.
	cached := bytes.Contains(body[:min(len(body), 256)], []byte(`"cached":true`))
	w.mu.Lock()
	rec.sent, rec.done, rec.ok, rec.cached, rec.err = sent, done, ok, cached, why
	w.mu.Unlock()
}

// rung is one rate of the ladder.
type rung struct {
	lat  []float64     // ms from due time
	span time.Duration // first due to last done
}

func (w *serveMix) runRung(ctx context.Context, rate float64, d time.Duration, o *outcome) (*rung, []*smRecord, []*smReq, []float64) {
	arr := w.schedule(rate, d)
	start := time.Now()
	recs, lag := w.run(ctx, arr, smGrace)
	rg := &rung{}
	end := start.Add(d)
	last := start
	failed, backlog := 0, 0 // backlog: requests due but not done when the rate ended
	w.mu.Lock()
	for _, r := range recs {
		switch {
		case r.done.IsZero(): // still out: finish counts it once the drain cuts it off
			backlog++
			continue
		case !r.ok:
			failed++
			continue
		}
		rg.lat = append(rg.lat, ms(r.done.Sub(r.due)))
		if r.done.After(last) {
			last = r.done
		}
		if r.due.Before(end) && r.done.After(end) {
			backlog++
		}
	}
	w.mu.Unlock()
	rg.span = last.Sub(start)
	o.attempted += len(arr)
	o.failed += failed
	o.notes = append(o.notes, fmt.Sprintf("rate %5.0f rps: %5d requests, achieved %7.1f/s, p50/99 %.3f %.3f ms, backlog %d, failed %d, lag p99 %.3f ms",
		rate, len(arr), ratio(float64(len(rg.lat)), rg.span.Seconds()), percentile(rg.lat, 50), percentile(rg.lat, 99), backlog, failed, percentile(lag, 99)))
	reqs := make([]*smReq, len(arr))
	for i, a := range arr {
		reqs[i] = a.req
	}
	return rg, recs, reqs, lag
}

func (w *serveMix) measure(ctx context.Context, d time.Duration, rec *recorder) (*outcome, error) {
	o := &outcome{}
	start := time.Now()
	if w.cfg.trace {
		var stop chan struct{}
		var sampler sync.WaitGroup
		if rec != nil {
			stop = make(chan struct{})
			sampler.Add(1)
			go w.sampleInflight(stop, &sampler)
		}
		rg, recs, reqs, lag := w.runRung(ctx, smRefRate, d, o)
		if rec != nil {
			close(stop)
			sampler.Wait()
			w.traced, w.tracedQ, w.lag = recs, reqs, lag
			for i, r := range recs {
				if r.ok {
					rec.add("serve."+reqs[i].route, 0, i, r.sent, r.done)
				}
			}
		}
		o.lat = rg.lat
	} else {
		// Sixteen equal steps: a closed-loop segment and then one rate of
		// the ladder, in turn, and two steps for the top rate.
		// latency_p50_ms pools the closed-loop segments, so a stall of the
		// host's vCPUs for a second or two moves a part of its samples, not
		// all of them.
		step := d / time.Duration(2*len(smLadder))
		top := len(smLadder) - 1
		for _, rate := range smLadder[:top] {
			o.lat = append(o.lat, w.closedLoop(ctx, step, o)...)
			w.runRung(ctx, rate, step, o)
		}
		o.notes = append(o.notes, fmt.Sprintf("closed loop: %d requests, p50/99 %.3f %.3f ms",
			len(o.lat), percentile(o.lat, 50), percentile(o.lat, 99)))
		rg, _, _, _ := w.runRung(ctx, smLadder[top], 2*step, o)
		o.opsPerS = ratio(float64(len(rg.lat)), rg.span.Seconds())
	}
	o.elapsed = time.Since(start)
	return o, ctx.Err()
}

// closedLoop sends requests of the mix one at a time over one connection,
// each as soon as the one before it is answered, for d, and returns their
// latencies. A request is due when it is sent, so its latency is its
// service time; the mix has no bursts, since nothing arrives at once.
func (w *serveMix) closedLoop(ctx context.Context, d time.Duration, o *outcome) []float64 {
	rng := w.nextRNG()
	cold := w.coldPicker(rng)
	var lat []float64
	for start := time.Now(); time.Since(start) < d && ctx.Err() == nil; {
		rec := &smRecord{}
		w.send(ctx, w.uni.pick(rng, cold), rec)
		o.attempted++
		if !rec.ok {
			o.failed++
			continue
		}
		lat = append(lat, ms(rec.done.Sub(rec.sent)))
	}
	return lat
}

func (w *serveMix) sampleInflight(stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	g := obs.NewGauge("serve.inflight")
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			w.inflMax = max(w.inflMax, g.Value())
		}
	}
}

// finish drains the server — cancel its base context, then wait for
// in-flight requests — counting any request cut off there as failed, and
// then checks every distinct 200 body against a direct facade call for its
// key.
func (w *serveMix) finish(ctx context.Context, o *outcome) {
	t0 := time.Now()
	w.cancel()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err := w.srv.Shutdown(sctx)
	cancel()
	if err != nil {
		w.srv.Close()
	}
	w.straggle.Wait()
	w.drainMs = ms(time.Since(t0))
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		o.fail("serve: %v", err)
	}
	w.served = nil
	for _, r := range w.pending {
		if !r.ok {
			o.failed++
		}
	}
	if len(w.pending) > 0 {
		o.notes = append(o.notes, fmt.Sprintf("%d requests were still out %v after their rate ended and were cut off by the drain", len(w.pending), smGrace))
	}
	o.notes = append(o.notes, fmt.Sprintf("drain took %.3f ms", w.drainMs))

	graphs := make(map[string]*lhg.Graph)
	for _, key := range sortedKeys(w.bodies) {
		r := w.reqs[key]
		for _, body := range w.bodies[key] {
			if err := w.oracle(ctx, r, body, graphs); err != nil {
				o.fail("%s: %v", key, err)
			}
		}
	}
}

// oracle checks one response body against a direct facade call.
func (w *serveMix) oracle(ctx context.Context, r *smReq, body []byte, graphs map[string]*lhg.Graph) error {
	c, err := lhg.ParseConstraint(r.c)
	if err != nil {
		return err
	}
	gk := graphKey(r.c, r.n, r.k, r.seed)
	g := graphs[gk]
	if g == nil {
		var opts []lhg.Option
		if r.seed != nil {
			opts = append(opts, lhg.WithSeed(*r.seed))
		}
		if g, err = lhg.Build(ctx, c, r.n, r.k, opts...); err != nil {
			return err
		}
		graphs[gk] = g
	}
	var resp struct {
		IsLHG  bool            `json:"is_lhg"`
		Report json.RawMessage `json:"report"`
		Result json.RawMessage `json:"result"`
		Graph  json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	var got, want []byte
	switch r.route {
	case "verify":
		rep, err := lhg.Verify(ctx, g, r.k, lhg.WithWorkers(verifyWorkers))
		if err != nil {
			return err
		}
		var served lhg.Report
		if err := json.Unmarshal(resp.Report, &served); err != nil {
			return err
		}
		if resp.IsLHG != rep.IsLHG() {
			return fmt.Errorf("is_lhg %t, want %t", resp.IsLHG, rep.IsLHG())
		}
		got, want = []byte(reportJSON(&served)), []byte(reportJSON(rep))
	case "flood":
		var served lhg.FloodResult
		if err := json.Unmarshal(resp.Result, &served); err != nil {
			return err
		}
		if !served.Complete {
			return fmt.Errorf("flood with %d ≤ k-1 failures is not complete: %v", len(r.failures), &served)
		}
		res, err := lhg.Flood(ctx, g, r.source, lhg.WithFailures(lhg.Failures{Nodes: r.failures}))
		if err != nil {
			return err
		}
		got, want, err = reencode[lhg.FloodResult](resp.Result, res)
		if err != nil {
			return err
		}
	case "build":
		got = resp.Graph
		if want, err = json.Marshal(g); err != nil {
			return err
		}
	case "budget":
		rep, err := lhg.FloodBudget(ctx, g, r.source, r.k, lhg.DefaultRetryPolicy())
		if err != nil {
			return err
		}
		got, want, err = reencode[lhg.BudgetReport](resp.Report, rep)
		if err != nil {
			return err
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served %.200s, direct call gives %.200s", got, want)
	}
	return nil
}

// reencode decodes the served raw JSON into T and encodes it and the
// direct result the same way, so the two compare byte for byte.
func reencode[T any](served json.RawMessage, direct *T) (got, want []byte, err error) {
	v := new(T)
	if err = json.Unmarshal(served, v); err != nil {
		return nil, nil, err
	}
	if got, err = json.Marshal(v); err != nil {
		return nil, nil, err
	}
	want, err = json.Marshal(direct)
	return got, want, err
}

func (w *serveMix) layers(o *outcome, rec *recorder, snap obs.Report) map[string]float64 {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	var hit, camp []float64
	route := make(map[string][]float64)
	campaigns := 0.0
	for i, r := range w.traced {
		if !r.ok {
			continue
		}
		svc := ms(r.done.Sub(r.sent))
		route[w.tracedQ[i].route] = append(route[w.tracedQ[i].route], svc)
		if r.cached {
			hit = append(hit, svc)
		} else {
			camp = append(camp, svc)
			if w.tracedQ[i].route != "build" {
				campaigns++
			}
		}
	}
	var hits, lookups, requests float64
	for _, ep := range []string{"build", "verify", "flood", "budget"} {
		hits += c("serve." + ep + ".cache.hits")
		lookups += c("serve."+ep+".cache.hits") + c("serve."+ep+".cache.misses")
		requests += c("serve." + ep + ".requests")
	}
	_, hitTail := tail(hit)
	_, campTail := tail(camp)
	return map[string]float64{
		"serve.hit_p50_ms":            median(hit),
		"serve.hit_tail_ms":           hitTail,
		"serve.campaign_p50_ms":       median(camp),
		"serve.campaign_tail_ms":      campTail,
		"serve.verify_p50_ms":         median(route["verify"]),
		"serve.flood_p50_ms":          median(route["flood"]),
		"serve.build_p50_ms":          median(route["build"]),
		"serve.budget_p50_ms":         median(route["budget"]),
		"serve.lru_hit_ratio":         ratio(hits-c("store.hits"), lookups),
		"serve.campaigns_per_request": ratio(float64(len(camp)), float64(len(hit)+len(camp))),
		"serve.coalesced_ratio":       ratio(c("serve.flight.coalesced"), requests),
		"store.hit_ratio":             ratio(c("store.hits"), c("store.hits")+c("store.misses")),
		"store.writes_per_campaign":   ratio(c("store.writes"), campaigns),
		"serve.inflight_max":          float64(w.inflMax),
		"serve.drain_ms":              w.drainMs,
		"loadgen.lag_p99_ms":          percentile(w.lag, 99),
	}
}

func (w *serveMix) close() {
	if w.served != nil {
		w.cancel()
		w.srv.Close()
		w.straggle.Wait()
		<-w.served
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
