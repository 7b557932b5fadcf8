package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"lhg"
	"lhg/internal/obs"
)

// churn-delta: one closed-loop session each on K-TREE(k=3) and
// K-DIAMOND(k=4) near n=4096. Each step applies a seeded mixed join/leave
// batch of 0.25–2% of n through Reconfigurer.Apply, then re-verifies with
// DeltaVerifier.Advance. Batches lean towards the session's starting size,
// so n wanders around it, on and off the construction grid.
const churnN = 4096

type churnSession struct {
	c     lhg.Constraint
	k, n0 int
	eng   lhg.Reconfigurer
	dv    *lhg.DeltaVerifier
	rng   *rand.Rand
	steps int
}

// nextBatch draws the session's next batch: its size, how strongly it
// leans towards joins or leaves, and the order of the changes.
func (s *churnSession) nextBatch() []lhg.Change {
	n := s.eng.N()
	size := max(1, int(float64(n)*(0.0025+0.0175*s.rng.Float64())))
	join := s.rng.IntN(2) == 0
	if n < s.n0*99/100 {
		join = true
	} else if n > s.n0*101/100 {
		join = false
	}
	lean := 0.6 + 0.4*s.rng.Float64()
	batch := make([]lhg.Change, size)
	for i := range batch {
		if (s.rng.Float64() < lean) == join {
			batch[i] = lhg.ChangeJoin
		} else {
			batch[i] = lhg.ChangeLeave
		}
	}
	return batch
}

// genChurnStarts returns the two sessions' starting sizes for a seed.
func genChurnStarts(seed uint64) [2]int {
	rng := seededRNG(seed, 0x636875726e0001)
	return [2]int{churnN - 64 + rng.IntN(129), churnN - 64 + rng.IntN(129)}
}

type churnDelta struct {
	cfg      config
	sessions []*churnSession
	probes   []float64 // delta-probe flows per Advance, traced phase
	edges    []float64 // |delta| per batch, traced phase
}

func newChurnDelta(cfg config) workload {
	return &churnDelta{cfg: cfg}
}

func (w *churnDelta) setup(ctx context.Context, rec *recorder) error {
	starts := genChurnStarts(w.cfg.seed)
	for i, sc := range []struct {
		c lhg.Constraint
		k int
	}{{lhg.KTree, 3}, {lhg.KDiamond, 4}} {
		s, err := newChurnSession(ctx, rec, sc.c, sc.k, starts[i], seededRNG(w.cfg.seed, uint64(0x636875726e0010+i)))
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, s)
	}
	return nil
}

// newChurnSession grows a reconfigurer to n0 nodes and runs the delta
// verifier's initial full verification.
func newChurnSession(ctx context.Context, rec *recorder, c lhg.Constraint, k, n0 int, rng *rand.Rand) (*churnSession, error) {
	s := &churnSession{c: c, k: k, n0: n0, rng: rng}
	h := rec.start("core.grow_at", 0, -1)
	var err error
	if c == lhg.KTree {
		s.eng, err = lhg.NewKTreeGrowerAt(k, n0)
	} else {
		s.eng, err = lhg.NewKDiamondGrowerAt(k, n0)
	}
	h.end()
	if err != nil {
		return nil, err
	}
	h = rec.start("check.new_delta_verifier", 0, -1)
	s.dv, err = lhg.NewDeltaVerifier(ctx, s.eng.Graph(), k, lhg.WithWorkers(verifyWorkers))
	h.end()
	return s, err
}

func (w *churnDelta) measure(ctx context.Context, d time.Duration, rec *recorder) (*outcome, error) {
	o := &outcome{}
	start := time.Now()
	for time.Since(start) < d {
		for _, s := range w.sessions {
			batch := s.nextBatch()
			op := o.attempted
			o.attempted++
			s.steps++
			root := rec.start("churn-delta.op", 0, op)
			t0 := time.Now()
			ah := rec.start("core.apply", root.id, op)
			delta, err := s.eng.Apply(batch)
			ah.end()
			if err != nil {
				root.end()
				o.fail("%s k=%d step %d: Apply: %v", s.c, s.k, s.steps, err)
				continue
			}
			vh := rec.start("check.advance", root.id, op)
			rep, err := s.dv.Advance(ctx, delta, s.eng.N())
			vh.end()
			vh.phases(rep, op)
			lat := time.Since(t0)
			root.end()
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				o.fail("%s k=%d step %d: Advance: %v", s.c, s.k, s.steps, err)
				continue
			}
			o.lat = append(o.lat, ms(lat))
			if !rep.IsLHG() {
				o.fail("%s k=%d step %d n=%d: Advance report is not an LHG: %s", s.c, s.k, s.steps, s.eng.N(), rep)
			}
			if rec != nil {
				w.edges = append(w.edges, float64(len(delta.Added)+len(delta.Removed)))
				probes := 0.0
				for _, p := range rep.Phases {
					if p.Phase == "delta-probes" {
						probes += float64(p.Probes)
					}
				}
				w.probes = append(w.probes, probes)
			}
		}
	}
	o.elapsed = time.Since(start)
	for _, s := range w.sessions {
		o.notes = append(o.notes, fmt.Sprintf("%s k=%d: n %d → %d after %d batches", s.c, s.k, s.n0, s.eng.N(), s.steps))
	}
	return o, nil
}

// finish compares each session's final report with a fresh full
// verification of the same graph, which must be identical apart from the
// wall-clock phases and the worker budget.
func (w *churnDelta) finish(ctx context.Context, o *outcome) {
	for _, s := range w.sessions {
		// All cores: the oracle is not timed, and a report is the same for
		// any worker budget apart from the field that records it.
		fresh, err := lhg.Verify(ctx, s.dv.Graph(), s.k, lhg.WithWorkers(runtime.NumCPU()))
		if err != nil {
			o.fail("%s k=%d: fresh Verify: %v", s.c, s.k, err)
			continue
		}
		fresh.Workers = s.dv.Report().Workers
		if a, b := reportJSON(s.dv.Report()), reportJSON(fresh); a != b {
			o.fail("%s k=%d n=%d: final Advance report %s differs from fresh Verify %s", s.c, s.k, s.eng.N(), a, b)
		}
	}
}

// reportJSON encodes rep without its wall-clock phases.
func reportJSON(rep *lhg.Report) string {
	r := *rep
	r.Phases = nil
	data, err := json.Marshal(&r)
	if err != nil {
		panic(err) // a Report always encodes
	}
	return string(data)
}

func (w *churnDelta) layers(o *outcome, rec *recorder, snap obs.Report) map[string]float64 {
	sum := rec.summary()
	adv := sum["check.advance"]
	return map[string]float64{
		"core.apply_ms":                sum["core.apply"].meanMs(),
		"core.delta_edges_per_batch":   mean(w.edges),
		"check.advance_ms":             adv.meanMs(),
		"check.advance_self_ms":        adv.meanSelfMs(),
		"check.phase.delta_probes_ms":  ratio(sum["check.phase.delta-probes"].TotalMs, float64(adv.Count)),
		"check.delta_fastpath_ratio":   ratio(float64(snap.Counters["check.delta.fastpath"]), float64(snap.Counters["check.delta.runs"])),
		"check.delta_probes_per_batch": mean(w.probes),
	}
}

func (w *churnDelta) close() {}
