package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lhg/internal/obs"
	"lhg/internal/serve"
)

func TestMain(m *testing.M) {
	obs.Enable()
	m.Run()
}

func startTestDaemon(t *testing.T, opts serve.Options) (base string, cancel func()) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	d, err := startDaemon(ctx, opts, "127.0.0.1:0")
	if err != nil {
		stop()
		t.Fatalf("startDaemon: %v", err)
	}
	t.Cleanup(func() {
		stop()
		if err := d.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return "http://" + d.Addr(), stop
}

func post(t *testing.T, url, body string, out any) int {
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

// TestDaemonEndToEnd drives every endpoint of a live daemon over TCP.
func TestDaemonEndToEnd(t *testing.T) {
	base, _ := startTestDaemon(t, serve.Options{CacheSize: 64})

	var build serve.BuildResponse
	if status := post(t, base+"/v1/build", `{"constraint":"kdiamond","n":50,"k":4}`, &build); status != http.StatusOK {
		t.Fatalf("build: status %d", status)
	}
	if build.Graph.Order() != 50 {
		t.Fatalf("build returned %d nodes, want 50", build.Graph.Order())
	}

	var verify serve.VerifyResponse
	if status := post(t, base+"/v1/verify", `{"constraint":"kdiamond","n":50,"k":4}`, &verify); status != http.StatusOK {
		t.Fatalf("verify: status %d", status)
	}
	if !verify.IsLHG {
		t.Fatalf("K-DIAMOND(50,4) must verify as an LHG: %+v", verify.Report)
	}

	var flood serve.FloodResponse
	if status := post(t, base+"/v1/flood",
		`{"constraint":"kdiamond","n":50,"k":4,"source":0,"failures":{"Nodes":[1,2,3]}}`, &flood); status != http.StatusOK {
		t.Fatalf("flood: status %d", status)
	}
	if !flood.Result.Complete {
		t.Fatalf("flood under f=3 < k=4 failures must complete: %v", flood.Result)
	}

	resp, err := http.Get(base + "/v1/constraints")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("constraints: status %d", resp.StatusCode)
	}
}

// TestDaemonReconfigureSession drives a stateful topology session over live
// TCP: create, churn both ways, read back, and confirm the epoch ratchet.
func TestDaemonReconfigureSession(t *testing.T) {
	base, _ := startTestDaemon(t, serve.Options{CacheSize: 64})

	var created serve.ReconfigureResponse
	if status := post(t, base+"/v1/reconfigure",
		`{"session":"prod","constraint":"ktree","n":18,"k":3}`, &created); status != http.StatusOK {
		t.Fatalf("create: status %d", status)
	}
	if created.Epoch != 0 || created.N != 18 || !created.IsLHG {
		t.Fatalf("create: epoch=%d n=%d is_lhg=%t, want 0/18/true", created.Epoch, created.N, created.IsLHG)
	}

	var churn serve.ReconfigureResponse
	if status := post(t, base+"/v1/reconfigure",
		`{"session":"prod","joins":3,"leaves":1}`, &churn); status != http.StatusOK {
		t.Fatalf("churn: status %d", status)
	}
	if churn.Epoch != 1 || churn.N != 20 || !churn.IsLHG {
		t.Fatalf("churn: epoch=%d n=%d is_lhg=%t, want 1/20/true", churn.Epoch, churn.N, churn.IsLHG)
	}
	if len(churn.Added) == 0 {
		t.Fatal("net growth of 2 members must add edges")
	}
	if churn.Report.NodeConnectivity < 3 || churn.Report.EdgeConnectivity < 3 {
		t.Fatalf("connectivity after churn = (%d,%d), want >= (3,3)",
			churn.Report.NodeConnectivity, churn.Report.EdgeConnectivity)
	}

	var read serve.ReconfigureResponse
	if status := post(t, base+"/v1/reconfigure", `{"session":"prod"}`, &read); status != http.StatusOK {
		t.Fatalf("read: status %d", status)
	}
	if read.Epoch != 1 || read.N != 20 {
		t.Fatalf("read: epoch=%d n=%d, want 1/20", read.Epoch, read.N)
	}
}

// TestLoadGeneratorCoalesces is the daemon-level acceptance check: a burst
// of 64 concurrent identical verify requests against a live TCP daemon
// executes exactly one verification campaign (singleflight + cache), and
// every request still gets a full, correct report.
func TestLoadGeneratorCoalesces(t *testing.T) {
	base, _ := startTestDaemon(t, serve.Options{CacheSize: 64})
	before := obs.Counters()

	const clients = 64
	body := `{"constraint":"kdiamond","n":100,"k":4,"properties":["P1","P2"]}`
	var wg sync.WaitGroup
	var ok, lhgTrue atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp serve.VerifyResponse
			if status := post(t, base+"/v1/verify", body, &resp); status == http.StatusOK {
				ok.Add(1)
				if resp.Report.KNodeConnected && resp.Report.KLinkConnected {
					lhgTrue.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	after := obs.Counters()
	if got := ok.Load(); got != clients {
		t.Fatalf("%d/%d requests succeeded", got, clients)
	}
	if got := lhgTrue.Load(); got != clients {
		t.Fatalf("%d/%d responses carried the verified properties", got, clients)
	}
	campaigns := after["check.verify.runs"] - before["check.verify.runs"]
	if campaigns != 1 {
		t.Fatalf("burst of %d identical verifies ran %d campaigns, want exactly 1", clients, campaigns)
	}
	// Probes are the expensive unit; a second campaign would have paid
	// them again. The delta must equal what one campaign costs, i.e. it
	// must be nonzero (the work happened) and stable across the burst.
	probes := after["flow.maxflow.probes"] - before["flow.maxflow.probes"]
	if probes == 0 {
		t.Fatal("no max-flow probes recorded; the campaign did not run here")
	}
}

// TestCacheHitLatency asserts the acceptance bound on the fast path: once a
// verify result is cached, p99 request latency over loopback TCP stays
// under a millisecond. Skipped under the race detector, whose per-access
// instrumentation dominates sub-millisecond budgets.
//
// The bound is on the daemon's cache path, not on the host's scheduler: a
// sample during which the test process's threads waited more than 100 µs
// in all on a CPU run queue (other processes had the CPUs) is taken again.
// On a busy 2-vCPU host such waits put the p99 at 1-4 ms while the samples
// that did not wait stay near 0.3 ms. A cache path that is itself slow
// still fails, because its time is spent running or blocked, not waiting
// for a CPU. Where the wait is not readable every sample counts.
func TestCacheHitLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("latency budget does not apply under the race detector")
	}
	base, _ := startTestDaemon(t, serve.Options{CacheSize: 64})
	body := `{"constraint":"ktree","n":40,"k":3,"properties":["P1"]}`

	// Prime the cache and the client's keep-alive connection.
	var warm serve.VerifyResponse
	if status := post(t, base+"/v1/verify", body, &warm); status != http.StatusOK {
		t.Fatalf("warmup: status %d", status)
	}
	for i := 0; i < 5; i++ {
		post(t, base+"/v1/verify", body, nil)
	}

	const (
		samples  = 300
		maxWait  = 100 * time.Microsecond
		attempts = 20 * samples
	)
	lat := make([]time.Duration, 0, samples)
	retaken := 0
	for i := 0; len(lat) < samples; i++ {
		if i == attempts {
			t.Fatalf("only %d of %d samples in %d attempts ran without waiting for a CPU", len(lat), samples, attempts)
		}
		waited0, ok0 := runQueueWait()
		start := time.Now()
		var resp serve.VerifyResponse
		if status := post(t, base+"/v1/verify", body, &resp); status != http.StatusOK {
			t.Fatalf("sample %d: status %d", i, status)
		}
		if !resp.Cached {
			t.Fatalf("sample %d missed the cache", i)
		}
		took := time.Since(start)
		if waited1, ok1 := runQueueWait(); ok0 && ok1 && waited1-waited0 > maxWait {
			retaken++
			continue
		}
		lat = append(lat, took)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 := lat[samples/2]
	p99 := lat[samples*99/100]
	t.Logf("cache-hit latency over loopback: p50=%v p99=%v (%d samples retaken after a run-queue wait)", p50, p99, retaken)
	if p99 >= time.Millisecond {
		t.Fatalf("cache-hit p99 = %v, want < 1ms", p99)
	}
}

// runQueueWait sums the time every thread of this process has spent
// runnable but waiting for a CPU (the second field of Linux's
// /proc/self/task/*/schedstat). ok is false where that is not readable.
func runQueueWait() (waited time.Duration, ok bool) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0, false
	}
	for _, task := range tasks {
		data, err := os.ReadFile("/proc/self/task/" + task.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		fields := strings.Fields(string(data))
		if len(fields) < 2 {
			return 0, false
		}
		ns, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		waited += time.Duration(ns)
	}
	return waited, true
}

// TestGracefulShutdown cancels the daemon context and checks the port is
// released and Serve returned cleanly.
func TestGracefulShutdown(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	d, err := startDaemon(ctx, serve.Options{CacheSize: 4}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("startDaemon: %v", err)
	}
	addr := d.Addr()
	if status := post(t, "http://"+addr+"/v1/build", `{"constraint":"ktree","n":8,"k":3}`, nil); status != http.StatusOK {
		t.Fatalf("pre-shutdown build: status %d", status)
	}
	stop()
	if err := d.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Post("http://"+addr+"/v1/build", "application/json",
		bytes.NewBufferString(`{}`)); err == nil {
		t.Fatal("daemon still accepting connections after shutdown")
	}
}

// TestShutdownSkipsUnusedConnections: a connection that never sends a
// request, like a spare one in a client's keep-alive pool, must not hold
// Shutdown for its five-second grace.
func TestShutdownSkipsUnusedConnections(t *testing.T) {
	d, err := startDaemon(context.Background(), serve.Options{CacheSize: 4}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("startDaemon: %v", err)
	}
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A served request on a second connection guarantees the server has
	// accepted by now.
	if status := post(t, "http://"+d.Addr()+"/v1/build", `{"constraint":"ktree","n":8,"k":3}`, nil); status != http.StatusOK {
		t.Fatalf("build: status %d", status)
	}
	start := time.Now()
	if err := d.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown took %v with one unused connection open", took)
	}
}

// TestShutdownDrainsRequestInFlight: Shutdown waits for a request that is
// still being read, and that request gets its response.
func TestShutdownDrainsRequestInFlight(t *testing.T) {
	d, err := startDaemon(context.Background(), serve.Options{CacheSize: 4}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("startDaemon: %v", err)
	}
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"constraint":"ktree","n":8,"k":3}`
	head := fmt.Sprintf("POST /v1/build HTTP/1.1\r\nHost: lhgd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := io.WriteString(conn, head+body[:5]); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has read the headers and the request is active.
	deadline := time.Now().Add(5 * time.Second)
	for !d.conns.serving() {
		if time.Now().After(deadline) {
			t.Fatal("request never became active")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- d.Shutdown() }()
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) with a request in flight", err)
	case <-time.After(200 * time.Millisecond):
	}
	if _, err := io.WriteString(conn, body[5:]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request got no response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request: status %d", resp.StatusCode)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRunFlagErrors keeps the flag surface honest.
func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &buf); err == nil {
		t.Fatal("unknown flag must fail")
	}
}

// TestRunServesUntilCanceled boots the full run() path on an ephemeral
// port and shuts it down via context cancellation, the same path a signal
// takes in production.
func TestRunServesUntilCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-cache", "8"}, w) }()

	// Wait for the listen line so we know the server is up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		up := bytes.Contains(buf.Bytes(), []byte("lhgd: listening"))
		mu.Unlock()
		if up {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address; log: %q", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func Example_daemonVerify() {
	ctx := context.Background()
	d, err := startDaemon(ctx, serve.Options{CacheSize: 8}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer d.Shutdown()
	resp, err := http.Post("http://"+d.Addr()+"/v1/verify", "application/json",
		bytes.NewBufferString(`{"constraint":"ktree","n":21,"k":3}`))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out serve.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(err)
	}
	fmt.Printf("is_lhg=%t cached=%t\n", out.IsLHG, out.Cached)
	// Output: is_lhg=true cached=false
}
