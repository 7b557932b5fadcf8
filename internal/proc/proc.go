// Package proc is the protocol-level substrate: processes exchanging
// messages over a topology on a deterministic discrete-event simulator.
// Where package flood computes *topological* reachability in synchronized
// rounds, proc executes the actual flooding protocol — per-process state,
// duplicate suppression, per-link latencies, and crashes that can strike
// *mid-forwarding* — and lets tests assert the reliable-broadcast
// properties the papers claim:
//
//	validity:  if the source stays correct, every correct process delivers;
//	agreement: if any correct process delivers a message, every correct
//	           process delivers it (this is what k-connectivity buys when
//	           at most k-1 processes crash, even at arbitrary times).
package proc

import (
	"fmt"

	"lhg/internal/graph"
	"lhg/internal/sim"
)

// MsgID identifies a broadcast: origin process and per-origin sequence
// number.
type MsgID struct {
	Src int
	Seq int
}

// Message is a flooded payload.
type Message struct {
	ID      MsgID
	Payload string
}

// Latency gives the transmission delay of link (u,v); it must be >= 1 to
// keep causality strict.
type Latency func(u, v int) int64

// Option configures a Network.
type Option interface {
	apply(*config)
}

type config struct {
	latency      Latency
	sendOverhead int64
	crashAt      map[int]int64
}

type latencyOption struct{ fn Latency }

func (o latencyOption) apply(c *config) { c.latency = o.fn }

// WithLatency sets the per-link transmission delay (default: 1 tick).
func WithLatency(fn Latency) Option { return latencyOption{fn: fn} }

type overheadOption struct{ d int64 }

func (o overheadOption) apply(c *config) { c.sendOverhead = o.d }

// WithSendOverhead makes a forwarding process emit on its links one by one,
// d ticks apart, instead of atomically. With a nonzero overhead a crash can
// interrupt a process half-way through forwarding — the hardest failure
// mode for a dissemination protocol.
func WithSendOverhead(d int64) Option { return overheadOption{d: d} }

type crashOption struct {
	node int
	at   int64
}

func (o crashOption) apply(c *config) {
	if c.crashAt == nil {
		c.crashAt = make(map[int]int64)
	}
	c.crashAt[o.node] = o.at
}

// WithCrashAt schedules process `node` to crash at simulated time `at`:
// from then on it neither sends nor receives.
func WithCrashAt(node int, at int64) Option { return crashOption{node: node, at: at} }

// Network simulates a set of processes flooding over a fixed topology.
type Network struct {
	topo  *graph.Graph
	q     sim.EventQueue
	cfg   config
	procs []*process

	messagesSent int
	dropped      int
}

type process struct {
	id        int
	crashed   bool
	crashTime int64
	hasCrash  bool
	delivered map[MsgID]Message
	order     []Message // delivery order
	heardAt   map[MsgID]int64
	nextSeq   int
}

// NewNetwork creates a network of g.Order() processes over topology g.
func NewNetwork(g *graph.Graph, opts ...Option) (*Network, error) {
	if g == nil || g.Order() == 0 {
		return nil, fmt.Errorf("proc: empty topology")
	}
	cfg := config{
		latency: func(u, v int) int64 { return 1 },
	}
	for _, o := range opts {
		o.apply(&cfg)
	}
	n := &Network{topo: g, cfg: cfg}
	n.procs = make([]*process, g.Order())
	for i := range n.procs {
		p := &process{
			id:        i,
			delivered: make(map[MsgID]Message),
			heardAt:   make(map[MsgID]int64),
		}
		if at, ok := cfg.crashAt[i]; ok {
			p.hasCrash = true
			p.crashTime = at
		}
		n.procs[i] = p
	}
	for node := range cfg.crashAt {
		if node < 0 || node >= g.Order() {
			return nil, fmt.Errorf("proc: crash schedule for unknown process %d", node)
		}
	}
	return n, nil
}

// alive reports whether process p is up at time t.
func (p *process) alive(t int64) bool {
	return !p.hasCrash || t < p.crashTime
}

// Broadcast schedules process src to flood a payload at time `at`. It
// returns the message id. The broadcast is silently lost if src has crashed
// by then (matching a real system: dead processes do not speak).
func (n *Network) Broadcast(src int, payload string, at int64) (MsgID, error) {
	if src < 0 || src >= len(n.procs) {
		return MsgID{}, fmt.Errorf("proc: unknown process %d", src)
	}
	p := n.procs[src]
	id := MsgID{Src: src, Seq: p.nextSeq}
	p.nextSeq++
	msg := Message{ID: id, Payload: payload}
	n.q.At(at, func() { n.receive(src, msg) })
	return id, nil
}

// receive handles the arrival (or local injection) of msg at process `to`.
func (n *Network) receive(to int, msg Message) {
	now := n.q.Now()
	p := n.procs[to]
	if !p.alive(now) {
		n.dropped++
		return
	}
	if _, seen := p.delivered[msg.ID]; seen {
		return
	}
	p.delivered[msg.ID] = msg
	p.order = append(p.order, msg)
	p.heardAt[msg.ID] = now
	// Forward on every link; with send overhead the emissions stagger and a
	// crash can cut the sequence short.
	offset := int64(0)
	n.topo.EachNeighbor(to, func(nb int) {
		sendAt := now + offset
		offset += n.cfg.sendOverhead
		target := nb
		n.q.At(sendAt, func() {
			if !n.procs[to].alive(n.q.Now()) {
				return // crashed before getting this transmission out
			}
			n.messagesSent++
			arrive := n.q.Now() + n.cfg.latency(to, target)
			n.q.At(arrive, func() { n.receive(target, msg) })
		})
	})
}

// Run drains the event queue and returns the final simulated time.
func (n *Network) Run() int64 {
	n.q.Run(-1)
	return n.q.Now()
}

// Now returns the current simulated time.
func (n *Network) Now() int64 { return n.q.Now() }

// MessagesSent returns the total point-to-point transmissions so far.
func (n *Network) MessagesSent() int { return n.messagesSent }

// Dropped returns the number of arrivals at crashed processes.
func (n *Network) Dropped() int { return n.dropped }

// Crashed reports whether process id has crashed by the current time.
func (n *Network) Crashed(id int) bool {
	if id < 0 || id >= len(n.procs) {
		return false
	}
	return !n.procs[id].alive(n.q.Now())
}

// Correct returns the ids of processes that never crash (with respect to
// the configured schedule), sorted.
func (n *Network) Correct() []int {
	var out []int
	for _, p := range n.procs {
		if !p.hasCrash {
			out = append(out, p.id)
		}
	}
	return out
}

// Delivered returns the messages process id has delivered, in delivery
// order. The slice is a copy.
func (n *Network) Delivered(id int) []Message {
	if id < 0 || id >= len(n.procs) {
		return nil
	}
	return append([]Message(nil), n.procs[id].order...)
}

// HeardAt returns when process id delivered the message, or -1.
func (n *Network) HeardAt(id int, mid MsgID) int64 {
	if id < 0 || id >= len(n.procs) {
		return -1
	}
	if t, ok := n.procs[id].heardAt[mid]; ok {
		return t
	}
	return -1
}

// CheckAgreement verifies the reliable-broadcast agreement property over
// the correct processes: either all of them delivered mid, or none did.
// It returns the number of correct deliverers and an error on a split.
func (n *Network) CheckAgreement(mid MsgID) (int, error) {
	correct := n.Correct()
	count := 0
	for _, id := range correct {
		if _, ok := n.procs[id].delivered[mid]; ok {
			count++
		}
	}
	if count != 0 && count != len(correct) {
		return count, fmt.Errorf("proc: agreement violated for %v: %d of %d correct processes delivered",
			mid, count, len(correct))
	}
	return count, nil
}
