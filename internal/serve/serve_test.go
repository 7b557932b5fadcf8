package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

func TestMain(m *testing.M) {
	// Counter assertions need the sink on; individual tests measure deltas
	// so they stay independent of ordering. Tracing is on too, so every
	// test exercises the request middleware and span plumbing under load.
	obs.Enable()
	trace.Enable()
	m.Run()
}

// --- cache -----------------------------------------------------------------

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Put("c", 3) // "b" is now the oldest: touching "a" promoted it
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRURefreshExistingKey(t *testing.T) {
	c := newLRU(2)
	c.Put("a", 1)
	c.Put("a", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	v, _ := c.Get("a")
	if v.(int) != 2 {
		t.Fatalf("Get(a) = %v, want 2", v)
	}
}

func TestLRUZeroCapacityDisabled(t *testing.T) {
	c := newLRU(0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache must never hit")
	}
}

// --- singleflight ----------------------------------------------------------

// waitForWaiters blocks until exactly n requests are attached to the flight
// under key (whitebox: reads the group's refcount).
func waitForWaiters(t *testing.T, g *flightGroup, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		f := g.flights[key]
		attached := 0
		if f != nil {
			attached = f.waiters
		}
		g.mu.Unlock()
		if attached == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %q has %d waiters, want %d", key, attached, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	g := newFlightGroup(context.Background())
	var runs atomic.Int64
	release := make(chan struct{})

	const callers = 32
	var wg sync.WaitGroup
	results := make([]any, callers)
	sharedCount := atomic.Int64{}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do(context.Background(), "k", func(context.Context) (any, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// The flight stays open until release, so every caller must end up
	// attached to it before we let the function finish.
	waitForWaiters(t, g, "k", callers)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != callers-1 {
		t.Fatalf("%d calls were shared, want %d", got, callers-1)
	}
	for i, v := range results {
		if v.(int) != 42 {
			t.Fatalf("caller %d got %v, want 42", i, v)
		}
	}
}

func TestFlightCancelsWhenLastWaiterLeaves(t *testing.T) {
	g := newFlightGroup(context.Background())
	canceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err, _ := g.Do(ctx, "k", func(runCtx context.Context) (any, error) {
		<-runCtx.Done()
		close(canceled)
		return nil, runCtx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("computation context was not canceled after the only waiter left")
	}
}

func TestFlightSurvivesLeaderAbandonment(t *testing.T) {
	g := newFlightGroup(context.Background())
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err, _ := g.Do(leaderCtx, "k", func(runCtx context.Context) (any, error) {
			close(started)
			select {
			case <-release:
				return "done", nil
			case <-runCtx.Done():
				return nil, runCtx.Err()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
	}()

	<-started
	// Second caller joins the in-flight computation...
	var follower sync.WaitGroup
	follower.Add(1)
	var followerVal any
	var followerErr error
	go func() {
		defer follower.Done()
		followerVal, followerErr, _ = g.Do(context.Background(), "k", func(context.Context) (any, error) {
			t.Error("follower must join the existing flight, not start a new one")
			return nil, nil
		})
	}()
	waitForWaiters(t, g, "k", 2)
	// ...then the leader walks away. The computation must keep running
	// because the follower is still attached.
	cancelLeader()
	wg.Wait()
	close(release)
	follower.Wait()

	if followerErr != nil {
		t.Fatalf("follower err = %v", followerErr)
	}
	if followerVal.(string) != "done" {
		t.Fatalf("follower got %v, want done", followerVal)
	}
}

// --- HTTP helpers ----------------------------------------------------------

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// --- endpoints -------------------------------------------------------------

func TestBuildEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	var resp BuildResponse
	status := postJSON(t, ts.URL+"/v1/build", `{"constraint":"kdiamond","n":20,"k":3}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if resp.Cached {
		t.Fatal("first build must not be served from cache")
	}
	if resp.Graph == nil || resp.Graph.Order() != 20 {
		t.Fatalf("graph order = %v, want 20", resp.Graph)
	}
	if resp.Edges != resp.Graph.Size() {
		t.Fatalf("edges = %d, graph has %d", resp.Edges, resp.Graph.Size())
	}

	var again BuildResponse
	postJSON(t, ts.URL+"/v1/build", `{"constraint":"kdiamond","n":20,"k":3}`, &again)
	if !again.Cached {
		t.Fatal("second identical build must hit the cache")
	}
}

func TestBuildSeedVariant(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	var canonical, variant BuildResponse
	postJSON(t, ts.URL+"/v1/build", `{"constraint":"ktree","n":20,"k":3}`, &canonical)
	status := postJSON(t, ts.URL+"/v1/build", `{"constraint":"ktree","n":20,"k":3,"seed":7}`, &variant)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if variant.Cached {
		t.Fatal("seeded variant must not reuse the canonical cache slot")
	}
}

func TestVerifyEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	var resp VerifyResponse
	status := postJSON(t, ts.URL+"/v1/verify", `{"constraint":"ktree","n":21,"k":3}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !resp.IsLHG {
		t.Fatalf("K-TREE(21,3) must verify as an LHG: %+v", resp.Report)
	}
	if resp.Report.NodeConnectivity != 3 || resp.Report.EdgeConnectivity != 3 {
		t.Fatalf("connectivity = (%d,%d), want (3,3)",
			resp.Report.NodeConnectivity, resp.Report.EdgeConnectivity)
	}

	var again VerifyResponse
	postJSON(t, ts.URL+"/v1/verify", `{"constraint":"ktree","n":21,"k":3}`, &again)
	if !again.Cached {
		t.Fatal("second identical verify must hit the cache")
	}
}

func TestVerifyPropertySubset(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	var resp VerifyResponse
	status := postJSON(t, ts.URL+"/v1/verify",
		`{"constraint":"kdiamond","n":20,"k":3,"properties":["P1"]}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !resp.Report.KNodeConnected {
		t.Fatal("P1 must hold on K-DIAMOND(20,3)")
	}
	if resp.Report.LinkMinimal {
		t.Fatal("P3 was not requested; its field must stay zero")
	}

	if status := postJSON(t, ts.URL+"/v1/verify",
		`{"constraint":"kdiamond","n":20,"k":3,"properties":["P9"]}`, nil); status != http.StatusBadRequest {
		t.Fatalf("unknown property: status = %d, want 400", status)
	}
}

func TestFloodEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	var resp FloodResponse
	status := postJSON(t, ts.URL+"/v1/flood",
		`{"constraint":"kdiamond","n":20,"k":4,"source":0,"failures":{"Nodes":[2,5,9]}}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !resp.Result.Complete {
		t.Fatalf("flood under f=3 < k=4 failures must reach every alive node: %v", resp.Result)
	}
	if resp.Result.Alive != 17 {
		t.Fatalf("alive = %d, want 17", resp.Result.Alive)
	}

	if status := postJSON(t, ts.URL+"/v1/flood",
		`{"constraint":"kdiamond","n":20,"k":4,"source":99}`, nil); status != http.StatusBadRequest {
		t.Fatalf("out-of-range source: status = %d, want 400", status)
	}
}

func TestConstraintsEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/constraints")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Constraints []ConstraintInfo `json:"constraints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Constraints) != 4 {
		t.Fatalf("got %d constraints, want 4", len(out.Constraints))
	}
	variants := 0
	for _, c := range out.Constraints {
		if c.Variants {
			variants++
		}
	}
	if variants != 2 {
		t.Fatalf("%d constraints advertise variants, want 2 (ktree, kdiamond)", variants)
	}

	if status := postJSON(t, ts.URL+"/v1/constraints", `{}`, nil); status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/constraints: status = %d, want 405", status)
	}
}

func TestErrorMapping(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"bad json", "/v1/build", `{"constraint":`, http.StatusBadRequest},
		{"unknown field", "/v1/build", `{"constraint":"ktree","n":21,"k":3,"bogus":1}`, http.StatusBadRequest},
		{"unknown constraint", "/v1/build", `{"constraint":"petersen","n":10,"k":3}`, http.StatusBadRequest},
		{"non-positive n", "/v1/build", `{"constraint":"ktree","n":0,"k":3}`, http.StatusBadRequest},
		{"not constructible", "/v1/build", `{"constraint":"ktree","n":5,"k":3}`, http.StatusUnprocessableEntity},
		{"seed on harary", "/v1/build", `{"constraint":"harary","n":20,"k":3,"seed":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e ErrorEnvelope
			if status := postJSON(t, ts.URL+tc.url, tc.body, &e); status != tc.want {
				t.Fatalf("status = %d, want %d (error %+v)", status, tc.want, e.Error)
			}
			if e.Error.Message == "" || e.Error.Code == "" {
				t.Fatal("error envelopes must carry a code and a message")
			}
		})
	}
}

func TestVerifyTimeoutMapsTo504(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16, Timeout: time.Nanosecond})
	status := postJSON(t, ts.URL+"/v1/verify", `{"constraint":"kdiamond","n":120,"k":4}`, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
}

// TestVerifyBurstRunsOneCampaign is the tentpole acceptance check: 64
// concurrent identical verify requests execute exactly one verification
// campaign. Whether a given request coalesced into the in-flight campaign
// or arrived after it finished and hit the LRU, the kernel-side campaign
// counter must move by exactly one.
func TestVerifyBurstRunsOneCampaign(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	// Warm the graph cache first: serve.flight.coalesced is shared across
	// endpoints, so build-flight coalescing inside the burst would
	// otherwise leak into the verify-side arithmetic below.
	if status := postJSON(t, ts.URL+"/v1/build", `{"constraint":"kdiamond","n":100,"k":4}`, nil); status != http.StatusOK {
		t.Fatalf("warm build: status %d", status)
	}
	before := obs.Counters()

	const clients = 64
	body := `{"constraint":"kdiamond","n":100,"k":4,"properties":["P1"]}`
	var wg sync.WaitGroup
	var cachedCount, okCount atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp VerifyResponse
			if status := postJSON(t, ts.URL+"/v1/verify", body, &resp); status == http.StatusOK {
				okCount.Add(1)
				if resp.Cached {
					cachedCount.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	after := obs.Counters()
	if ok := okCount.Load(); ok != clients {
		t.Fatalf("%d/%d requests succeeded", ok, clients)
	}
	campaigns := after["check.verify.runs"] - before["check.verify.runs"]
	if campaigns != 1 {
		t.Fatalf("burst of %d identical verifies ran %d campaigns, want exactly 1", clients, campaigns)
	}
	if got := cachedCount.Load(); got != clients-1 {
		t.Fatalf("%d requests reported cached, want %d (all but the leader)", got, clients-1)
	}
	served := (after["serve.verify.cache.hits"] - before["serve.verify.cache.hits"]) +
		(after["serve.flight.coalesced"] - before["serve.flight.coalesced"])
	if served != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d", served, clients-1)
	}
}

// TestClientDisconnectCancelsCampaign checks the end of the cancellation
// chain: when the only client of an expensive verify goes away, the flight
// context is cancelled and the campaign aborts instead of running to
// completion in the background.
func TestClientDisconnectCancelsCampaign(t *testing.T) {
	ts := newTestServer(t, Options{CacheSize: 16})
	ctx, cancel := context.WithCancel(context.Background())
	// The instance must outlive the 50ms head start below even on the
	// source-set probe sweeps (n=4096 now verifies in ~35ms on 2 vCPUs,
	// n=16384 in ~0.4s).
	body := `{"constraint":"kdiamond","n":16384,"k":6}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/verify", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the campaign start
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}

	// The server must stay fully responsive afterwards: the abandoned
	// flight unmaps itself, and fresh requests get fresh computations.
	var resp VerifyResponse
	status := postJSON(t, ts.URL+"/v1/verify",
		`{"constraint":"kdiamond","n":20,"k":3,"properties":["P1"]}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("server unresponsive after client disconnect: status %d", status)
	}
}

func TestWorkersClamp(t *testing.T) {
	for _, tc := range []struct{ asked, budget, want int }{
		{0, 0, 0}, {0, 4, 4}, {2, 4, 2}, {8, 4, 4}, {8, 0, 8}, {-1, 3, 3},
	} {
		if got := clampRequestWorkers(tc.asked, tc.budget); got != tc.want {
			t.Errorf("clampRequestWorkers(%d, %d) = %d, want %d", tc.asked, tc.budget, got, tc.want)
		}
	}
}

func TestCacheKeysDistinguishParameters(t *testing.T) {
	br := func(c string, n, k int, seed *uint64) *BuildRequest {
		return &BuildRequest{Constraint: c, N: n, K: k, Seed: seed}
	}
	seed := uint64(7)
	keys := map[string]bool{}
	for _, r := range []*BuildRequest{
		br("ktree", 21, 3, nil),
		br("ktree", 22, 3, nil),
		br("ktree", 21, 4, nil),
		br("kdiamond", 21, 3, nil),
		br("ktree", 21, 3, &seed),
	} {
		c, err := r.validate()
		if err != nil {
			t.Fatal(err)
		}
		k := r.graphKey(c)
		if keys[k] {
			t.Fatalf("duplicate cache key %q", k)
		}
		keys[k] = true
	}
}

func ExampleServer() {
	ts := httptest.NewServer(New(Options{CacheSize: 16}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json",
		bytes.NewBufferString(`{"constraint":"ktree","n":21,"k":3}`))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out VerifyResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	fmt.Printf("is_lhg=%t kappa=%d\n", out.IsLHG, out.Report.NodeConnectivity)
	// Output: is_lhg=true kappa=3
}
