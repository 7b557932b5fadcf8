package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"lhg"
	"lhg/internal/check"
	"lhg/internal/flow"
	"lhg/internal/obs"
)

// verify-exact: one closed-loop caller runs lhg.Verify over a seeded list
// of inputs in full passes until the measured time is used up.
//
// Every seed's list has the same cost profile, because verification time
// depends so strongly on the input that freely drawn lists would move the
// median between seeds by more than the regressions the benchmark must
// catch: it grows about as n², and at equal n a constraint and k can cost
// twice another. So slot i of vxSlots covers the i-th of vxSlots
// log-uniform strata of [256, 4096] with a fixed (constraint, k) pair and
// a fixed kind, and two dense inputs follow. The seed moves each n by up to
// ±1.5% around its stratum centre, puts it on or off the regular grid,
// picks the perturbed edges and the dense sizes, and orders the list.
const (
	vxMinN  = 256
	vxMaxN  = 4096
	vxSlots = 18
	vxDense = 2
)

// vxChords and vxRemoved are the slots perturbed with an added chord and a
// removed edge: 3 of 20 inputs, about 1 in 8.
var (
	vxChords  = []int{4, 13}
	vxRemoved = []int{9}
)

var vxCombos = [9]struct {
	c lhg.Constraint
	k int
}{
	{lhg.KTree, 3}, {lhg.KDiamond, 4}, {lhg.JD, 5},
	{lhg.KDiamond, 3}, {lhg.JD, 4}, {lhg.KTree, 5},
	{lhg.JD, 3}, {lhg.KTree, 4}, {lhg.KDiamond, 5},
}

// Input kinds and the verdict each must get.
const (
	kindCanonical = "canonical" // an LHG
	kindChord     = "chord"     // P1 and P2 hold, P3 fails
	kindRemoved   = "removed"   // P1 and P2 fail
	kindDense     = "dense"     // κ = λ = k, P3 fails; the sparsify gate fires
)

type vxInput struct {
	spec string // the vxSpec it was built from, printed
	kind string
	c    lhg.Constraint
	k    int
	n    int
	g    *lhg.Graph
	edge lhg.Edge // the added chord or the removed edge
}

func (in *vxInput) String() string {
	return fmt.Sprintf("%s %s k=%d n=%d", in.kind, in.c, in.k, in.n)
}

// vxSpec is the generated description of one input, before any graph is
// built, so tests can compare seeds cheaply.
type vxSpec struct {
	Kind     string
	C        lhg.Constraint
	K, N     int
	Regular  bool
	EdgeSeed uint64 // picks the chord or removed edge
	Core     int    // dense: clique size
}

// seededRNG returns the random stream named stream of a seed. Both words
// go through splitmix64 first: PCG seeded with nearby raw values starts
// with nearby outputs, and seeds 1, 2, 3 must give unrelated inputs.
func seededRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitmix64(seed), splitmix64(stream^0x9e3779b97f4a7c15)))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// genVerifyExact returns the seed's list of inputs.
func genVerifyExact(seed uint64) []vxSpec {
	rng := seededRNG(seed, 0x7665726966790001)
	var specs []vxSpec
	for i := 0; i < vxSlots; i++ {
		combo := vxCombos[i%len(vxCombos)]
		centre := vxMinN * math.Pow(vxMaxN/vxMinN, (float64(i)+0.5)/vxSlots)
		n := int(math.Round(centre * (1 + 0.03*(rng.Float64()-0.5))))
		n = gridSize(combo.c, n, combo.k, rng.IntN(2) == 0)
		sp := vxSpec{Kind: kindCanonical, C: combo.c, K: combo.k, N: n, Regular: lhg.Regular(combo.c, n, combo.k)}
		switch {
		case contains(vxChords, i):
			sp.Kind, sp.EdgeSeed = kindChord, rng.Uint64()
		case contains(vxRemoved, i):
			sp.Kind, sp.EdgeSeed = kindRemoved, rng.Uint64()
		}
		specs = append(specs, sp)
	}
	for i := 0; i < vxDense; i++ {
		n := 2 * (176 + rng.IntN(5)) // even, in [352, 360]
		specs = append(specs, vxSpec{Kind: kindDense, C: lhg.Harary, K: 4, N: n, Core: denseCore(n, 4)})
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// gridSize returns the buildable size nearest n that is (or, with
// regular=false, is not) on the constraint's regular grid, searching ±8%;
// failing that, the nearest buildable size.
func gridSize(c lhg.Constraint, n, k int, regular bool) int {
	fallback := 0
	for d := 0; d <= n*8/100; d++ {
		for _, m := range []int{n + d, n - d} {
			if m < vxMinN || m > vxMaxN || !lhg.Exists(c, m, k) {
				continue
			}
			if lhg.Regular(c, m, k) == regular {
				return m
			}
			if fallback == 0 {
				fallback = m
			}
		}
	}
	if fallback == 0 {
		return n
	}
	return fallback
}

// denseCore is the clique size that lifts Harary H(k,n) safely above the
// sparsify gate m > check.SparsifyCutoff·k·n.
func denseCore(n, k int) int {
	need := float64(check.SparsifyCutoff)*float64(k*n)*1.15 - float64(k*n)/2
	return int(math.Ceil((1 + math.Sqrt(1+8*need)) / 2))
}

// buildInput turns a spec into a graph, the way a caller would: lhg.Build
// for canonical inputs and FromEdges for perturbed ones.
func buildInput(ctx context.Context, sp vxSpec) (*vxInput, error) {
	in := &vxInput{spec: fmt.Sprintf("%+v", sp), kind: sp.Kind, c: sp.C, k: sp.K, n: sp.N}
	g, err := lhg.Build(ctx, sp.C, sp.N, sp.K)
	if err != nil {
		return nil, err
	}
	rng := seededRNG(sp.EdgeSeed, 0x65646765)
	edges := g.Edges()
	switch sp.Kind {
	case kindChord:
		for {
			u, v := rng.IntN(sp.N), rng.IntN(sp.N)
			if u != v && !g.HasEdge(u, v) {
				in.edge = lhg.Edge{U: min(u, v), V: max(u, v)}
				break
			}
		}
		g, err = lhg.FromEdges(sp.N, append(edges, in.edge))
	case kindRemoved:
		// An edge at a degree-k node: removing it leaves degree k-1, so
		// λ ≤ k-1 and both P1 and P2 must fail.
		for {
			e := edges[rng.IntN(len(edges))]
			if g.Degree(e.U) == sp.K || g.Degree(e.V) == sp.K {
				in.edge = e
				break
			}
		}
		kept := make([]lhg.Edge, 0, len(edges)-1)
		for _, e := range edges {
			if e != in.edge {
				kept = append(kept, e)
			}
		}
		g, err = lhg.FromEdges(sp.N, kept)
	case kindDense:
		b := g.Thaw()
		for u := 0; u < sp.Core; u++ {
			for v := u + 1; v < sp.Core; v++ {
				if !b.HasEdge(u, v) {
					b.MustAddEdge(u, v)
				}
			}
		}
		g = b.Freeze()
	}
	in.g = g
	return in, err
}

// verdictError reports how rep disagrees with what the generator built.
func verdictError(in *vxInput, rep *lhg.Report) error {
	if rep.N != in.g.Order() || rep.M != in.g.Size() || rep.K != in.k {
		return fmt.Errorf("report is for n=%d m=%d k=%d", rep.N, rep.M, rep.K)
	}
	ok := true
	switch in.kind {
	case kindCanonical:
		ok = rep.IsLHG()
	case kindChord:
		ok = rep.KNodeConnected && rep.KLinkConnected && !rep.LinkMinimal
	case kindRemoved:
		ok = !rep.KNodeConnected && !rep.KLinkConnected
	case kindDense:
		ok = rep.NodeConnectivity == in.k && rep.EdgeConnectivity == in.k && !rep.LinkMinimal
	}
	if !ok {
		return fmt.Errorf("wrong verdict: %s", rep)
	}
	return nil
}

type verifyExact struct {
	cfg     config
	inputs  []*vxInput
	digests []vxDigest // per input, from its first verification

	probeUs, shortcutUs float64
}

func newVerifyExact(cfg config) workload {
	return &verifyExact{cfg: cfg}
}

func (w *verifyExact) setup(ctx context.Context, rec *recorder) error {
	for i, sp := range genVerifyExact(w.cfg.seed) {
		h := rec.start("core.build", 0, -1-i)
		in, err := buildInput(ctx, sp)
		h.end()
		if err != nil {
			return fmt.Errorf("build %+v: %w", sp, err)
		}
		w.inputs = append(w.inputs, in)
	}
	// Warm-up: the smallest input once, so pools and scratch exist.
	small := w.inputs[0]
	for _, in := range w.inputs {
		if in.g.Size() < small.g.Size() {
			small = in
		}
	}
	_, err := lhg.Verify(ctx, small.g, small.k, lhg.WithWorkers(verifyWorkers))
	return err
}

// measure runs full passes over the list, starting another while it would
// end nearer the deadline than stopping now would. Every pass has the same
// inputs, so the statistics do not depend on how many passes fit.
func (w *verifyExact) measure(ctx context.Context, d time.Duration, rec *recorder) (*outcome, error) {
	o := &outcome{}
	start := time.Now()
	for passes := 0; ; passes++ {
		if el := time.Since(start); passes > 0 && el+el/time.Duration(passes)/2 > d {
			break
		}
		for i, in := range w.inputs {
			op := o.attempted
			o.attempted++
			root := rec.start("verify-exact.op", 0, op)
			vs := rec.start("check.verify", root.id, op)
			t0 := time.Now()
			rep, err := lhg.Verify(ctx, in.g, in.k, lhg.WithWorkers(verifyWorkers))
			lat := time.Since(t0)
			vs.end()
			vs.phases(rep, op)
			root.end()
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				o.fail("verify %v: %v", in, err)
				continue
			}
			o.lat = append(o.lat, ms(lat))
			if err := verdictError(in, rep); err != nil {
				o.fail("%v: %v", in, err)
			}
			sum := sha256.Sum256([]byte(reportJSON(rep)))
			d := vxDigest{Spec: in.spec, Report: hex.EncodeToString(sum[:8])}
			if len(w.digests) <= i {
				w.digests = append(w.digests, d)
			} else if w.digests[i] != d {
				o.fail("%v: report digest %s, its first verification gave %s", in, d.Report, w.digests[i].Report)
			}
		}
	}
	o.elapsed = time.Since(start)
	o.notes = append(o.notes, fmt.Sprintf("%d inputs per pass, %d verifications", len(w.inputs), o.attempted))
	if rec != nil {
		if err := w.edgeProbes(o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// edgeProbes times flow.EdgeIsRemovable on the workload's own chords, whose
// endpoints both have degree above κ and λ so both flows run, and on an
// edge at a degree-k node, which the degree shortcut answers without flow.
func (w *verifyExact) edgeProbes(o *outcome) error {
	var probe, shortcut []float64
	for _, in := range w.inputs {
		kappa, lambda := in.k, in.k
		switch in.kind {
		case kindChord:
			if min(in.g.Degree(in.edge.U), in.g.Degree(in.edge.V)) <= in.k {
				return fmt.Errorf("%v: chord %v has an endpoint of degree <= k", in, in.edge)
			}
			for i := 0; i < 20; i++ {
				t0 := time.Now()
				removable := flow.EdgeIsRemovable(in.g, in.edge, kappa, lambda)
				probe = append(probe, float64(time.Since(t0))/1e3)
				if !removable {
					o.fail("%v: flow.EdgeIsRemovable says chord %v is not removable", in, in.edge)
					break
				}
			}
		case kindCanonical:
			if len(shortcut) > 0 {
				continue
			}
			var e lhg.Edge
			for _, x := range in.g.Edges() {
				if in.g.Degree(x.U) == in.k {
					e = x
					break
				}
			}
			const reps = 2000
			for i := 0; i < 20; i++ {
				removable := false
				t0 := time.Now()
				for j := 0; j < reps; j++ {
					removable = removable || flow.EdgeIsRemovable(in.g, e, kappa, lambda)
				}
				shortcut = append(shortcut, float64(time.Since(t0))/1e3/reps)
				if removable {
					o.fail("%v: flow.EdgeIsRemovable says %v at a degree-k node is removable", in, e)
					break
				}
			}
		}
	}
	w.probeUs, w.shortcutUs = median(probe), median(shortcut)
	return nil
}

// vxDigest is one verified input as the digest file records it.
type vxDigest struct {
	Spec   string `json:"spec"`
	Report string `json:"report"` // hash of the report without its wall-clock phases
}

// finish checks the per-input report digests against those an earlier run
// of the same seed and the same build recorded in the same output
// directory, on the inputs both runs generated alike, and records them.
// Runs of another build are not compared: a change to the program may
// legitimately change a report.
func (w *verifyExact) finish(_ context.Context, o *outcome) {
	id, err := buildID()
	if err != nil {
		o.fail("identify build: %v", err)
		return
	}
	path := filepath.Join(w.cfg.out, "digests", fmt.Sprintf("verify-exact-%s-seed%d.json", id, w.cfg.seed))
	var prev []vxDigest
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &prev); err != nil {
			o.fail("read digests: %v", err)
			return
		}
	case !errors.Is(err, os.ErrNotExist):
		o.fail("read digests: %v", err)
		return
	}
	for i := 0; i < min(len(prev), len(w.digests)); i++ {
		if prev[i].Spec == w.digests[i].Spec && prev[i].Report != w.digests[i].Report {
			o.fail("input %d (%v): report digest %s, an earlier run of seed %d gave %s", i, w.inputs[i], w.digests[i].Report, w.cfg.seed, prev[i].Report)
		}
	}
	if data, err = json.Marshal(w.digests); err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	if err != nil {
		o.fail("record digests: %v", err)
	}
}

// buildID identifies the running binary by a hash of its contents. Go
// builds are reproducible, so the same source gives the same id and any
// change to the program or the benchmark gives another.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func (w *verifyExact) layers(o *outcome, rec *recorder, snap obs.Report) map[string]float64 {
	sum := rec.summary()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	verify := sum["check.verify"]
	verifies := float64(verify.Count)
	m := map[string]float64{
		"core.build_ms":                  sum["core.build"].meanMs(),
		"check.verify_ms":                verify.meanMs(),
		"check.verify_self_ms":           verify.meanSelfMs(),
		"flow.probes_per_verify":         ratio(c("flow.maxflow.probes"), verifies),
		"flow.augments_per_probe":        ratio(c("flow.maxflow.augmenting_paths"), c("flow.maxflow.probes")),
		"flow.pool_miss_ratio":           ratio(c("flow.pool.misses"), c("flow.pool.gets")),
		"graph.scratch_miss_ratio":       ratio(c("graph.scratch.misses"), c("graph.scratch.gets")),
		"check.prescreen_improved_ratio": ratio(c("check.prescreen.improved"), c("check.prescreen.rounds")),
		"check.sparsify_drop_ratio":      ratio(c("check.sparsify.edges_dropped"), c("check.sparsify.edges_dropped")+c("check.sparsify.edges_kept")),
		"check.p3_probed_per_verify":     ratio(c("check.p3.edges_probed"), verifies),
		"flow.edge_probe_us":             w.probeUs,
		"flow.edge_probe_shortcut_us":    w.shortcutUs,
	}
	for _, p := range []string{"sparsify", "prescreen", "kappa", "lambda", "minimality", "distances"} {
		m["check.phase."+p+"_ms"] = ratio(sum["check.phase."+p].TotalMs, verifies)
	}
	return m
}

func (w *verifyExact) close() {}
