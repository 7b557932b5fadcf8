package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"lhg/internal/check"
	"lhg/internal/obs"
)

// span is one benchmark-side interval around a call into a layer. Spans of
// one operation share Op; Parent is 0 for an operation's root. Times are
// nanoseconds since the recorder started.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent,omitempty"`
	Op       int              `json:"op"`
	Name     string           `json:"name"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same in both modes apart from these calls.
type recorder struct {
	t0       time.Time
	counters []*obs.Counter

	mu    sync.Mutex
	spans []span
}

// newRecorder returns a recorder whose root spans carry deltas of the named
// obs counters, taken at the span's start and end.
func newRecorder(counters ...string) *recorder {
	r := &recorder{t0: time.Now()}
	for _, name := range counters {
		r.counters = append(r.counters, obs.NewCounter(name))
	}
	return r
}

// handle is an open span.
type handle struct {
	r      *recorder
	id     int
	before []int64
}

// start opens a span. A root span (parent 0) also snapshots the counters.
func (r *recorder) start(name string, parent, op int) handle {
	if r == nil {
		return handle{}
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	h := handle{r: r, id: id}
	if parent == 0 {
		h.before = r.snapshot()
	}
	return h
}

func (r *recorder) snapshot() []int64 {
	v := make([]int64, len(r.counters))
	for i, c := range r.counters {
		v[i] = c.Value()
	}
	return v
}

// end closes the span and returns its duration.
func (h handle) end() time.Duration {
	if h.r == nil {
		return 0
	}
	now := time.Since(h.r.t0).Nanoseconds()
	var deltas map[string]int64
	if h.before != nil {
		after := h.r.snapshot()
		for i, c := range h.r.counters {
			if d := after[i] - h.before[i]; d != 0 {
				if deltas == nil {
					deltas = make(map[string]int64)
				}
				deltas[c.Name()] = d
			}
		}
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	s := &h.r.spans[h.id-1]
	s.End = now
	s.Counters = deltas
	return time.Duration(s.End - s.Start)
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, parent, op int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

// phases adds the verification phases of rep as child spans of h, laid end
// to end from the parent's start in execution order. Report.Phases carries
// durations only; the phases run sequentially inside the call, so this
// placement is exact up to the gaps between them, which stay in the
// parent's self time.
func (h handle) phases(rep *check.Report, op int) {
	if h.r == nil || rep == nil {
		return
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	at := h.r.spans[h.id-1].Start
	for _, p := range rep.Phases {
		d := int64(p.Ms * 1e6)
		id := len(h.r.spans) + 1
		h.r.spans = append(h.r.spans, span{ID: id, Parent: h.id, Op: op, Name: "check.phase." + p.Phase, Start: at, End: at + d})
		at += d
	}
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (s spanStats) meanMs() float64     { return ratio(s.TotalMs, float64(s.Count)) }
func (s spanStats) meanSelfMs() float64 { return ratio(s.SelfMs, float64(s.Count)) }

// summary returns per-name totals, with each span's self time: its
// duration minus the part of it that its children's intervals cover.
func (r *recorder) summary() map[string]spanStats {
	out := make(map[string]spanStats)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(children[s.ID], s.Start, s.End)) / 1e6
		out[s.Name] = st
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores every span and the per-name summary as JSON at path.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	sum := r.summary()
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans   []span               `json:"spans"`
		Summary map[string]spanStats `json:"summary"`
	}{r.spans, sum})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
