package graph

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The all-sources distance sweep behind DistanceStatsCtx is a bit-parallel
// multi-source BFS: one batch runs laneWidth BFSes in lockstep, source i of
// the batch owning bit i of every node's lane. A node's lane holds the
// sources that have reached it. Each level ORs the neighbours' lanes into
// the node's own: a source bit that arrives this way is new exactly when
// the node is at that source's current BFS level, so level·popcount(new
// bits) credited per level sums to the exact integer total the per-source
// BFS would produce, and the last level that adds bits is the maximum.
// ORing whole lanes instead of last-level frontiers finds the same new bits
// and needs one buffer less. Nodes whose lane is already saturated (reached
// by every source of the batch) are skipped. A batch ends on the first
// level that adds nothing; any node still unsaturated then is unreachable
// from some source, i.e. the graph is disconnected. A batch is 256
// sources: at n=4096 that measured faster than 512 (nodes saturate sooner,
// so more are skipped) and than 128, at half the memory of 512.
const (
	laneWords = 4
	laneWidth = 64 * laneWords
	// cancelStride is how many nodes of a level run between polls of the
	// done channel: a level of a dense graph is ~4·2m word ORs, too coarse
	// a quantum for cancellation on its own.
	cancelStride = 256
)

type lane [laneWords]uint64

// lanes is one worker's working set: every node's lane at the current and
// at the next level, 2·32 B per node (256 KiB at n=4096).
type lanes struct{ seen, next []lane }

var lanesPool = sync.Pool{New: func() any { return new(lanes) }}

func getLanes(n int) *lanes {
	l := lanesPool.Get().(*lanes)
	if cap(l.seen) < n {
		l.seen, l.next = make([]lane, n), make([]lane, n)
	}
	l.seen, l.next = l.seen[:n], l.next[:n]
	return l
}

// sweepAllSources returns the maximum and the sum of the BFS distances
// over all ordered node pairs, and whether every source reached the whole
// graph. The FanOut workers take whole source batches, each on its own
// pooled lanes. The optional done channel is polled every cancelStride
// nodes of a BFS level. A canceled or disconnected sweep stops every
// worker and reports connected=false, and its distances mean nothing; the
// caller tells the two apart by its context.
func (g *Graph) sweepAllSources(done <-chan struct{}, workers int) (maxDist int, total int64, connected bool) {
	n := g.Order()
	var (
		stop atomic.Bool
		mu   sync.Mutex
	)
	connected = true
	FanOut((n+laneWidth-1)/laneWidth, workers, func(_ int, next func() (int, bool)) {
		l := getLanes(n)
		defer lanesPool.Put(l)
		for !stop.Load() {
			b, ok := next()
			if !ok {
				return
			}
			d, t, ok := g.laneBatch(l, b*laneWidth, done)
			mu.Lock()
			maxDist, total, connected = max(maxDist, d), total+t, connected && ok
			mu.Unlock()
			if !ok {
				stop.Store(true)
			}
		}
	})
	return maxDist, total, connected
}

// laneBatch runs the BFSes from sources lo..lo+laneWidth-1 (clipped to the
// order) in lockstep on l and returns their maximum and summed distance.
// ok is false when some source misses a node or done fires.
func (g *Graph) laneBatch(l *lanes, lo int, done <-chan struct{}) (maxDist int, total int64, ok bool) {
	n := g.Order()
	width := min(laneWidth, n-lo)
	var full lane
	for i := 0; i < width; i++ {
		full[i/64] |= 1 << (i % 64)
	}
	clear(l.seen)
	for i := 0; i < width; i++ {
		l.seen[lo+i][i/64] = 1 << (i % 64)
	}
	for level := 1; ; level++ {
		found := 0
		for v := 0; v < n; v++ {
			if v%cancelStride == 0 && signaled(done) {
				return 0, 0, false
			}
			s := &l.seen[v]
			if *s == full {
				l.next[v] = full
				continue
			}
			// Eight scalar accumulators keep the lane in registers; an
			// array accumulator would round-trip through the stack.
			a0, a1, a2, a3 := s[0], s[1], s[2], s[3]
			for _, u := range g.row(v) {
				f := &l.seen[u]
				a0, a1, a2, a3 = a0|f[0], a1|f[1], a2|f[2], a3|f[3]
			}
			found += bits.OnesCount64(a0^s[0]) + bits.OnesCount64(a1^s[1]) + bits.OnesCount64(a2^s[2]) + bits.OnesCount64(a3^s[3])
			l.next[v] = lane{a0, a1, a2, a3}
		}
		if found == 0 {
			break
		}
		maxDist, total = level, total+int64(level)*int64(found)
		l.seen, l.next = l.next, l.seen
	}
	for v := range l.seen {
		if l.seen[v] != full {
			return 0, 0, false
		}
	}
	return maxDist, total, true
}
