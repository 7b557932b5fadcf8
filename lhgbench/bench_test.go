package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"lhg"
	"lhg/internal/serve"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	if !reflect.DeepEqual(genVerifyExact(7), genVerifyExact(7)) {
		t.Error("verify-exact: the same seed generated different inputs")
	}
	if reflect.DeepEqual(genVerifyExact(7), genVerifyExact(8)) {
		t.Error("verify-exact: different seeds generated the same inputs")
	}

	batches := func(seed uint64) [][]lhg.Change {
		s := &churnSession{n0: 4096, rng: seededRNG(seed, 1)}
		var err error
		if s.eng, err = lhg.NewKTreeGrowerAt(3, 64); err != nil {
			t.Fatal(err)
		}
		var out [][]lhg.Change
		for i := 0; i < 5; i++ {
			out = append(out, s.nextBatch())
		}
		return out
	}
	if !reflect.DeepEqual(batches(7), batches(7)) || genChurnStarts(7) != genChurnStarts(7) {
		t.Error("churn-delta: the same seed generated different batches")
	}
	if reflect.DeepEqual(batches(7), batches(8)) {
		t.Error("churn-delta: different seeds generated the same batches")
	}

	schedule := func(seed uint64) []string {
		w := newServeMix(config{seed: seed}).(*serveMix)
		var out []string
		for _, a := range w.schedule(400, 2*time.Second) {
			out = append(out, fmt.Sprintf("%v %s", a.due, a.req.key))
		}
		return out
	}
	if !reflect.DeepEqual(schedule(7), schedule(7)) {
		t.Error("serve-mix: the same seed generated different schedules")
	}
	if reflect.DeepEqual(schedule(7), schedule(8)) {
		t.Error("serve-mix: different seeds generated the same schedule")
	}

	sources := func(seed uint64) []int {
		w := newBroadcastNet(config{seed: seed}).(*broadcastNet)
		var out []int
		for i := 0; i < 20; i++ {
			out = append(out, w.rng.IntN(bnN))
		}
		return out
	}
	if !reflect.DeepEqual(sources(7), sources(7)) || reflect.DeepEqual(sources(7), sources(8)) {
		t.Error("broadcast-net: sources do not follow the seed")
	}
}

// TestVerifyExactProfile checks what the generator promises every seed:
// the same mix of kinds, buildable sizes covering [256, 4096]
// log-uniformly, and dense inputs above the sparsify gate.
func TestVerifyExactProfile(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		kinds := make(map[string]int)
		var quarters [4]int
		for _, sp := range genVerifyExact(seed) {
			kinds[sp.Kind]++
			if sp.Kind == kindDense {
				m := sp.N*sp.K/2 + sp.Core*(sp.Core-1)/2 - sp.Core*sp.K // Harary edges inside the core counted once
				if m <= 2*sp.K*sp.N {
					t.Errorf("%+v: about %d edges, not above the sparsify gate %d", sp, m, 2*sp.K*sp.N)
				}
				continue
			}
			if sp.N < vxMinN || sp.N > vxMaxN || !lhg.Exists(sp.C, sp.N, sp.K) {
				t.Errorf("%+v: size out of range or not buildable", sp)
			}
			quarters[min(3, int(4*math.Log(float64(sp.N)/vxMinN)/math.Log(vxMaxN/vxMinN)))]++
		}
		want := map[string]int{kindCanonical: 15, kindChord: 2, kindRemoved: 1, kindDense: 2}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("seed %d: kinds %v, want %v", seed, kinds, want)
		}
		for q, c := range quarters {
			if c < 4 || c > 5 {
				t.Errorf("seed %d: %d of %d sized inputs in quarter %d of log n, want 4 or 5", seed, c, vxSlots, q)
			}
		}
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(bj.EndToEnd), len(bj.PerLayer))
	}
	seen := make(map[string]bool)
	check := func(kind string, i int, defs []metricDef, n, unit, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s metric %q: bad or repeated name", kind, n)
		}
		seen[n] = true
		if i >= len(defs) || defs[i] != (metricDef{n, unit, better}) {
			t.Errorf("%s metric %d in BENCHMARK.json is %s %s %s, the catalog disagrees", kind, i, n, unit, better)
		}
	}
	for i, m := range bj.EndToEnd {
		check("end-to-end", i, e2eMetrics, m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bj.PerLayer {
		check("per-layer", i, layerMetrics, m.Name, m.Unit, m.Better)
	}
	if len(bj.EndToEnd) != len(e2eMetrics) || len(bj.PerLayer) != len(layerMetrics) {
		t.Error("BENCHMARK.json and the catalog list different numbers of metrics")
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown, or its why is not one short line", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command knows %d", len(bj.Workloads), len(workloads))
	}
}

// TestVerifyExactOracle plants a wrong verdict of each kind.
func TestVerifyExactOracle(t *testing.T) {
	ctx := context.Background()
	for _, sp := range []vxSpec{
		{Kind: kindCanonical, C: lhg.KTree, K: 3, N: 64},
		{Kind: kindChord, C: lhg.KDiamond, K: 4, N: 70, EdgeSeed: 1},
		{Kind: kindRemoved, C: lhg.JD, K: 3, N: 64, EdgeSeed: 2},
		{Kind: kindDense, C: lhg.Harary, K: 4, N: 64, Core: denseCore(64, 4)},
	} {
		in, err := buildInput(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := lhg.Verify(ctx, in.g, in.k)
		if err != nil {
			t.Fatal(err)
		}
		if err := verdictError(in, rep); err != nil {
			t.Errorf("%v: true verdict rejected: %v", in, err)
		}
		planted := *rep
		switch sp.Kind {
		case kindCanonical, kindChord:
			planted.LinkMinimal = !planted.LinkMinimal
		case kindRemoved:
			planted.KNodeConnected, planted.KLinkConnected = true, true
		case kindDense:
			planted.NodeConnectivity++
		}
		if verdictError(in, &planted) == nil {
			t.Errorf("%v: planted wrong verdict accepted", in)
		}
	}
}

func TestChurnOracle(t *testing.T) {
	ctx := context.Background()
	s, err := newChurnSession(ctx, nil, lhg.KTree, 3, 64, seededRNG(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	w := &churnDelta{sessions: []*churnSession{s}}
	o, err := w.measure(ctx, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.finish(ctx, o)
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("clean run: %d of %d failed: %v", o.failed, o.attempted, o.wrong)
	}
	s.dv.Report().Diameter++
	w.finish(ctx, o)
	if o.failed != 1 {
		t.Errorf("planted wrong final report: %d failures, want 1", o.failed)
	}
}

func TestServeOracle(t *testing.T) {
	ctx := context.Background()
	w := &serveMix{workers: 2}
	graphs := make(map[string]*lhg.Graph)
	g, err := lhg.Build(ctx, lhg.KDiamond, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lhg.Verify(ctx, g, 4, lhg.WithWorkers(verifyWorkers))
	if err != nil {
		t.Fatal(err)
	}
	fl := &smReq{route: "flood", c: "kdiamond", n: 40, k: 4, source: 1, failures: []int{5, 9, 20}}
	res, err := lhg.Flood(ctx, g, 1, lhg.WithFailures(lhg.Failures{Nodes: fl.failures}))
	if err != nil {
		t.Fatal(err)
	}
	bud, err := lhg.FloodBudget(ctx, g, 2, 4, lhg.DefaultRetryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	wrongRep := *rep
	wrongRep.Diameter++
	wrongRes := *res
	wrongRes.Complete, wrongRes.Reached = false, res.Reached-1
	wrongBud := *bud
	wrongBud.Source = 3
	b := g.Thaw()
	e := g.Edges()[0]
	b.RemoveEdge(e.U, e.V)
	wrongG := b.Freeze()

	vr := &smReq{route: "verify", c: "kdiamond", n: 40, k: 4}
	br := &smReq{route: "build", c: "kdiamond", n: 40, k: 4}
	bg := &smReq{route: "budget", c: "kdiamond", n: 40, k: 4, source: 2}
	for _, tc := range []struct {
		req         *smReq
		good, wrong any
	}{
		{vr, serve.VerifyResponse{IsLHG: true, Report: rep}, serve.VerifyResponse{IsLHG: true, Report: &wrongRep}},
		{fl, serve.FloodResponse{Result: res}, serve.FloodResponse{Result: &wrongRes}},
		{br, serve.BuildResponse{Graph: g}, serve.BuildResponse{Graph: wrongG}},
		{bg, serve.BudgetResponse{Report: bud}, serve.BudgetResponse{Report: &wrongBud}},
	} {
		good, _ := json.Marshal(tc.good)
		wrong, _ := json.Marshal(tc.wrong)
		if err := w.oracle(ctx, tc.req, good, graphs); err != nil {
			t.Errorf("%s: true answer rejected: %v", tc.req.route, err)
		}
		if w.oracle(ctx, tc.req, wrong, graphs) == nil {
			t.Errorf("%s: planted wrong answer accepted", tc.req.route)
		}
	}
}

func TestBroadcastOracle(t *testing.T) {
	ctx := context.Background()
	w := newBroadcastNet(config{seed: 1}).(*broadcastNet)
	defer w.close()
	if err := w.setup(ctx, nil); err != nil {
		t.Fatal(err)
	}
	o, err := w.measure(ctx, 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.finish(ctx, o)
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("clean run: %d of %d failed: %v", o.failed, o.attempted, o.wrong)
	}
	w.sent[[2]int{0, 1 << 20}] = true // a broadcast no node delivered
	w.finish(ctx, o)
	if o.failed < bnN {
		t.Errorf("planted undelivered broadcast: %d failures, want one per node", o.failed)
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	t0 := r.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r.add("parent", 0, 0, at(0), at(100))
	r.add("child", 1, 0, at(10), at(40))
	r.add("child", 1, 0, at(30), at(60)) // overlaps the first child
	r.add("child", 1, 0, at(90), at(120))
	sum := r.summary()
	if got := sum["parent"].SelfMs; got != 40 {
		t.Errorf("parent self time %g ms, want 40", got)
	}
	if got := sum["child"]; got.Count != 3 || got.TotalMs != 90 {
		t.Errorf("child totals %+v, want 3 spans, 90 ms", got)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, _ := tail(xs); p != 75 {
		t.Errorf("48 samples: tail p%g, want p75", p)
	}
	if p, _ := tail(xs[:20]); p != 50 {
		t.Errorf("20 samples: tail p%g, want p50", p)
	}
}
