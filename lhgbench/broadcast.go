package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"lhg"
	"lhg/internal/flood"
	"lhg/internal/netflood"
	"lhg/internal/obs"
)

// broadcast-net: a reliable netflood cluster on loopback TCP over
// K-DIAMOND(64,4), with no injected faults. One closed-loop broadcast at a
// time, from seeded sources, each waiting until every node has delivered
// it.
const (
	bnN, bnK       = 64, 4
	bnWarmup       = 8
	bnDeliverLimit = 5 * time.Second

	// bnHeapOps is how many broadcasts peak_heap_mb covers, and the
	// fewest a measured phase runs. Every node keeps each message it
	// delivered, so the heap grows with the broadcasts done: over the
	// whole phase a faster netflood would read as a heap regression.
	bnHeapOps = 1000
)

type broadcastNet struct {
	cfg     config
	g       *lhg.Graph
	cluster *netflood.Cluster
	rng     *rand.Rand
	sent    map[[2]int]bool // (src, seq) of every broadcast
	startS  float64

	deliverMs, floodMs []float64 // traced phase
}

func newBroadcastNet(cfg config) workload {
	return &broadcastNet{cfg: cfg, rng: seededRNG(cfg.seed, 0x62636173740001), sent: make(map[[2]int]bool)}
}

func (w *broadcastNet) setup(ctx context.Context, rec *recorder) error {
	var err error
	h := rec.start("core.build", 0, -1)
	w.g, err = lhg.Build(ctx, lhg.KDiamond, bnN, bnK)
	h.end()
	if err != nil {
		return err
	}
	h = rec.start("netflood.start", 0, -2)
	t0 := time.Now()
	w.cluster, err = netflood.StartWithOptions(w.g, netflood.Options{Reliable: true})
	w.startS = time.Since(t0).Seconds()
	h.end()
	if err != nil {
		return err
	}
	o := &outcome{}
	for i := 0; i < bnWarmup; i++ {
		w.broadcast(o, nil, -1)
	}
	if len(o.wrong) > 0 {
		return fmt.Errorf("warm-up: %s", o.wrong[0])
	}
	return nil
}

// broadcast floods one message and waits until all nodes delivered it,
// checking that none delivered it twice. It returns the latency.
func (w *broadcastNet) broadcast(o *outcome, rec *recorder, op int) (time.Duration, bool) {
	src := w.rng.IntN(bnN)
	o.attempted++
	root := rec.start("broadcast-net.op", 0, op)
	t0 := time.Now()
	bh := rec.start("netflood.Broadcast", root.id, op)
	msg, err := w.cluster.Broadcast(src, fmt.Sprintf("m%d", op))
	bh.end()
	if err != nil {
		root.end()
		o.fail("Broadcast from %d: %v", src, err)
		return 0, false
	}
	key := [2]int{msg.Src, msg.Seq}
	w.sent[key] = true
	timeout := time.NewTimer(bnDeliverLimit)
	defer timeout.Stop()
	// The delivery stream carries no node id; check reads the per-node
	// logs for exactly-once delivery after the run, so here it is enough
	// to count copies of this message until there is one per node. Every
	// earlier message already had one per node, so any copy of it now is a
	// second delivery somewhere.
	count := 0
	for count < bnN {
		select {
		case m := <-w.cluster.Deliveries():
			switch {
			case m.Src == msg.Src && m.Seq == msg.Seq:
				count++
			case w.sent[[2]int{m.Src, m.Seq}]:
				o.fail("message %d/%d delivered again", m.Src, m.Seq)
			default:
				o.fail("delivery of unknown message %d/%d", m.Src, m.Seq)
			}
		case <-timeout.C:
			root.end()
			o.fail("broadcast %d/%d: %d of %d nodes delivered within %v", msg.Src, msg.Seq, count, bnN, bnDeliverLimit)
			return 0, false
		}
	}
	lat := time.Since(t0)
	root.end()
	if rec != nil {
		fh := rec.start("flood.Run", 0, op)
		res, err := flood.Run(w.g, src, flood.Failures{})
		w.floodMs = append(w.floodMs, ms(fh.end()))
		if err != nil || !res.Complete || res.Reached != bnN {
			o.fail("flood.Run from %d: %v %v", src, res, err)
		}
		w.deliverMs = append(w.deliverMs, ms(lat))
	}
	return lat, true
}

func (w *broadcastNet) measure(ctx context.Context, d time.Duration, rec *recorder) (*outcome, error) {
	o := &outcome{}
	heap := startHeapSampler()
	start := time.Now()
	for (time.Since(start) < d || heap != nil) && ctx.Err() == nil {
		if lat, ok := w.broadcast(o, rec, o.attempted); ok {
			o.lat = append(o.lat, ms(lat))
		}
		if heap != nil && o.attempted == bnHeapOps {
			o.heapMB = heap.finish()
			heap = nil
		}
	}
	if heap != nil {
		heap.finish()
	}
	o.elapsed = time.Since(start)
	return o, ctx.Err()
}

// finish checks exactly-once delivery from the per-node logs: every node
// delivered every broadcast once and nothing else.
func (w *broadcastNet) finish(_ context.Context, o *outcome) {
	for v := 0; v < bnN; v++ {
		seen := make(map[[2]int]int)
		for _, m := range w.cluster.Delivered(v) {
			seen[[2]int{m.Src, m.Seq}]++
		}
		for key := range w.sent {
			if seen[key] != 1 {
				o.fail("node %d delivered %d/%d %d times", v, key[0], key[1], seen[key])
			}
		}
		if len(seen) != len(w.sent) {
			o.fail("node %d delivered %d distinct messages, %d were broadcast", v, len(seen), len(w.sent))
		}
	}
}

func (w *broadcastNet) layers(o *outcome, rec *recorder, snap obs.Report) map[string]float64 {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	b := c("netflood.broadcasts")
	return map[string]float64{
		"netflood.start_s":                   w.startS,
		"netflood.broadcast_ms":              median(w.deliverMs),
		"netflood.ack_rtt_p50_us":            histQuantile(snap.Histograms["netflood.ack.rtt_us"], 0.5),
		"netflood.frames_per_broadcast":      ratio(c("netflood.frames.sent"), b),
		"netflood.acks_per_broadcast":        ratio(c("netflood.acks.sent"), b),
		"netflood.duplicate_ratio":           ratio(c("netflood.msgs.duplicate"), c("netflood.msgs.duplicate")+c("netflood.msgs.delivered")),
		"netflood.retransmits_per_broadcast": ratio(c("netflood.frames.retransmitted"), b),
		"flood.run_ms":                       mean(w.floodMs),
	}
}

// histQuantile estimates the q-quantile of a bucketed histogram by linear
// interpolation inside the bucket that holds it.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Buckets {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		if i == len(h.Bounds) {
			return lo // open-ended last bucket
		}
		return lo + (float64(h.Bounds[i])-lo)*(rank-seen)/float64(c)
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

func (w *broadcastNet) close() {
	if w.cluster != nil {
		w.cluster.Shutdown()
	}
}
