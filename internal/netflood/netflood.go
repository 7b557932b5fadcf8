// Package netflood runs the flooding protocol over real TCP sockets on the
// loopback interface: one node per topology vertex, one connection per
// edge, length-prefixed binary frames, duplicate suppression by a
// per-origin sequence watermark, and forwarding on every link — the
// deployment shape of the paper's protocol, in miniature. The cluster
// supports *live reconfiguration* (AddNode, Connect, Disconnect, Apply), so
// the incremental growers of package core can drive a real socket overlay
// one admission at a time.
//
// Two fault models are supported, selected by Options:
//
//   - The default is fail-stop: best-effort forwarding, every frame written
//     once, crashed nodes simply stop. This is the paper's crash model and
//     keeps the message complexity exactly 2m frames per broadcast.
//   - Options.Reliable layers an acked protocol over the same links:
//     per-message acks, retransmission with exponential backoff and jitter,
//     per-link write deadlines, peer health via a missed-ack threshold, and
//     automatic reconnection with graceful degradation when a peer stays
//     unreachable. Combined with Options.Faults (package faultnet), this is
//     the chaos harness that proves delivery under lossy, delaying,
//     duplicating, reordering and flapping links — not just clean crashes.
//
// The simulators (flood, proc) answer "what does the topology guarantee";
// this package demonstrates the same protocol working over the standard
// library's actual networking stack.
package netflood

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lhg/internal/core"
	"lhg/internal/faultnet"
	"lhg/internal/graph"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
	"lhg/internal/sim"
)

// Cluster telemetry. Frames are counted at the sender, deliveries and
// duplicates at the receiver; hops is the socket-level analog of the
// simulator's per-round delivery latency (each forward adds one hop).
// The reliable protocol and the fault-injection transport add their own
// events: retransmissions, acks (with an RTT histogram), write timeouts,
// delivery-channel overflow drops, reconnections, and peers declared dead.
var (
	mNetBroadcasts     = obs.NewCounter("netflood.broadcasts")
	mNetFramesSent     = obs.NewCounter("netflood.frames.sent")
	mNetDelivered      = obs.NewCounter("netflood.msgs.delivered")
	mNetDuplicates     = obs.NewCounter("netflood.msgs.duplicate")
	mNetDropped        = obs.NewCounter("netflood.msgs.dropped")
	mNetNodesAdded     = obs.NewCounter("netflood.nodes.added")
	mNetCrashes        = obs.NewCounter("netflood.nodes.crashed")
	mNetConnects       = obs.NewCounter("netflood.links.connected")
	mNetDisconnects    = obs.NewCounter("netflood.links.disconnected")
	mNetRetransmits    = obs.NewCounter("netflood.frames.retransmitted")
	mNetRetrDeferred   = obs.NewCounter("netflood.retransmit.deferred")
	mNetRetrBudgetX    = obs.NewCounter("netflood.retransmit.budget_exhausted")
	mNetRetrWakeups    = obs.NewCounter("netflood.retransmit.wakeups")
	mNetHopsExhausted  = obs.NewCounter("netflood.hops.budget_exhausted")
	mNetRepairDeferred = obs.NewCounter("netflood.repair.deferred")
	mNetAcksSent       = obs.NewCounter("netflood.acks.sent")
	mNetAcksRecv       = obs.NewCounter("netflood.acks.received")
	mNetWriteTOs       = obs.NewCounter("netflood.write.timeouts")
	mNetReconnects     = obs.NewCounter("netflood.links.reconnected")
	mNetPeersDead      = obs.NewCounter("netflood.peers.dead")
	hNetHops           = obs.NewHistogram("netflood.delivery.hops", 1, 2, 4, 8, 16, 32)
	hNetAckRTT         = obs.NewHistogram("netflood.ack.rtt_us",
		100, 500, 1_000, 5_000, 20_000, 100_000, 1_000_000)
)

// Message is one flooded payload. Hops counts the links the copy crossed
// before its first delivery at a node (0 at the source), the socket-level
// delivery-latency measure. Budget is the remaining hop allowance under
// Options.HopBudget: it decrements per forwarding hop, and a copy arriving
// with none left is delivered but travels no further.
type Message struct {
	Src     int    `json:"src"`
	Seq     int    `json:"seq"`
	Payload string `json:"payload"`
	Hops    int    `json:"hops,omitempty"`
	Budget  int    `json:"budget,omitempty"`
}

// id is the identity of a message: the key of a link's pending table.
type id struct {
	src, seq int
}

// dedup records which messages a node has delivered, one entry per origin.
type dedup map[int]*origin

// origin is one source's dedup state. Every seq in [0, next) has been
// delivered; later holds the other delivered seqs (past a gap, or negative).
// Delivering next absorbs the run of later seqs that follows it; a gap that
// never fills keeps the seqs past it, as a set of delivered ids would.
type origin struct {
	next  int
	later map[int]struct{}
}

// first marks (src, seq) delivered and reports whether it was new.
func (d dedup) first(src, seq int) bool {
	o := d[src]
	if o == nil {
		o = &origin{}
		d[src] = o
	}
	if _, dup := o.later[seq]; dup || (0 <= seq && seq < o.next) {
		return false
	}
	if seq != o.next {
		if o.later == nil {
			o.later = make(map[int]struct{})
		}
		o.later[seq] = struct{}{}
		return true
	}
	for o.next++; len(o.later) > 0; o.next++ {
		if _, ok := o.later[o.next]; !ok {
			break
		}
		delete(o.later, o.next)
	}
	if len(o.later) == 0 {
		o.later = nil
	}
	return true
}

// node is one process: a TCP listener plus one registered connection per
// incident topology edge.
type node struct {
	idx      int
	c        *Cluster
	ln       net.Listener
	mu       sync.Mutex
	peers    map[int]*peerConn // remote node id -> connection
	changed  chan struct{}     // closed and replaced whenever peers gains an entry
	seen     dedup
	order    []Message
	nextSeq  int
	delivery chan<- Message
	rng      *sim.RNG      // backoff jitter; touched only by the retransmit loop
	retrWake chan struct{} // nudges the retransmit loop when pending work appears

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// peerConn is one direction-owning endpoint of a link. conn may be swapped
// by reconnection; pending (reliable mode) survives the swap so in-flight
// messages ride over to the new socket.
type peerConn struct {
	remote   int
	mu       sync.Mutex // serializes frame writes and guards the fields below
	conn     net.Conn
	pending  map[id]*pendingEntry // reliable mode only; nil otherwise
	dead     bool
	rebuilds int // reconnection attempts consumed

	// Token-bucket admission state for retransmissions
	// (Options.RetransmitRate); tokensAt zero means the bucket has never
	// been filled.
	tokens   float64
	tokensAt time.Time
}

// pendingEntry tracks one unacked message on one link. attempts is the
// missed-ack window and resets when a reconnection swaps the socket; total
// is the lifetime retransmission spend and never resets — it is what
// Options.RetryBudget bounds.
type pendingEntry struct {
	msg       Message
	attempts  int
	total     int
	nextDue   time.Time
	firstSent time.Time
}

// Cluster is a set of nodes wired along a topology's edges.
type Cluster struct {
	opts       Options
	mu         sync.Mutex
	nodes      []*node
	deliveries chan Message
	wrapGen    atomic.Uint64
}

// Start launches one node per vertex of g on loopback TCP ports and dials
// every edge, with default options. The returned cluster must be Shutdown.
func Start(g *graph.Graph) (*Cluster, error) {
	return StartWithOptions(g, Options{})
}

// StartWithOptions is Start with explicit transport/protocol options.
func StartWithOptions(g *graph.Graph, opts Options) (*Cluster, error) {
	n := g.Order()
	if n == 0 {
		return nil, errors.New("netflood: empty topology")
	}
	if opts.DeliveryBuffer <= 0 {
		// Deliveries across the whole cluster; sized generously so reader
		// goroutines never fall behind in tests.
		opts.DeliveryBuffer = 64 * n
	}
	c := StartEmptyWithOptions(opts)
	for i := 0; i < n; i++ {
		if _, err := c.AddNode(); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	for _, e := range g.Edges() {
		if err := c.Connect(e.U, e.V); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	return c, nil
}

// StartEmpty creates a cluster with no nodes; grow it with AddNode,
// Connect and Apply.
func StartEmpty() *Cluster {
	return StartEmptyWithOptions(Options{})
}

// StartEmptyWithOptions is StartEmpty with explicit options.
func StartEmptyWithOptions(opts Options) *Cluster {
	opts.withDefaults()
	if opts.DeliveryBuffer <= 0 {
		opts.DeliveryBuffer = 4096
	}
	return &Cluster{opts: opts, deliveries: make(chan Message, opts.DeliveryBuffer)}
}

// Size returns the number of nodes (alive or crashed).
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// AddNode spawns a new process with its own listener and returns its id.
func (c *Cluster) AddNode() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("netflood: listen: %w", err)
	}
	c.mu.Lock()
	idx := len(c.nodes)
	nd := &node{
		idx:      idx,
		c:        c,
		ln:       ln,
		peers:    make(map[int]*peerConn),
		changed:  make(chan struct{}),
		seen:     make(dedup),
		delivery: c.deliveries,
		rng:      sim.NewRNG(c.opts.Seed ^ (uint64(idx+1) * 0x9e3779b97f4a7c15)),
		retrWake: make(chan struct{}, 1),
		closed:   make(chan struct{}),
	}
	c.nodes = append(c.nodes, nd)
	c.mu.Unlock()
	mNetNodesAdded.Inc()
	nd.wg.Add(1)
	go nd.acceptLoop()
	if c.opts.Reliable {
		nd.wg.Add(1)
		go nd.retransmitLoop()
	}
	return idx, nil
}

// Connect dials a link between two nodes. It is idempotent for an existing
// link and returns once the link is usable in both directions, which keeps
// reconfiguration deterministic. The wait is signalled, not polled, and is
// bounded by Options.HandshakeTimeout.
func (c *Cluster) Connect(u, v int) error {
	nu, nv, err := c.pair(u, v)
	if err != nil {
		return err
	}
	if !nu.alive() || !nv.alive() {
		return fmt.Errorf("netflood: link (%d,%d) touches a crashed node", u, v)
	}
	nu.mu.Lock()
	_, exists := nu.peers[v]
	nu.mu.Unlock()
	if exists {
		return nil
	}
	conn, err := net.DialTimeout("tcp", nv.ln.Addr().String(), c.opts.HandshakeTimeout)
	if err != nil {
		return fmt.Errorf("netflood: dial (%d,%d): %w", u, v, err)
	}
	// Handshake: tell the acceptor who is calling. The hello travels on the
	// raw conn — fault plans apply only after the link is established, so a
	// lossy plan cannot wedge link setup.
	if err := writeFrameTo(conn, frame{Kind: "hello", From: u}, c.opts.WriteTimeout); err != nil {
		conn.Close()
		return fmt.Errorf("netflood: hello (%d,%d): %w", u, v, err)
	}
	if nu.attach(v, conn, bufio.NewReader(conn)) == nil {
		conn.Close()
		return fmt.Errorf("netflood: node %d shut down during connect", u)
	}
	mNetConnects.Inc()
	// Wait until the acceptor has registered the reverse direction.
	timer := time.NewTimer(c.opts.HandshakeTimeout)
	defer timer.Stop()
	for {
		nv.mu.Lock()
		_, ready := nv.peers[u]
		ch := nv.changed
		nv.mu.Unlock()
		if ready {
			return nil
		}
		select {
		case <-ch:
		case <-nv.closed:
			return fmt.Errorf("netflood: node %d crashed during handshake (%d,%d)", v, u, v)
		case <-timer.C:
			return fmt.Errorf("netflood: handshake (%d,%d) timed out", u, v)
		}
	}
}

// Disconnect tears down the link between two nodes (no-op if absent).
func (c *Cluster) Disconnect(u, v int) error {
	nu, nv, err := c.pair(u, v)
	if err != nil {
		return err
	}
	// Tear down both directions unconditionally (|| would short-circuit
	// and leave the reverse registration behind).
	removedU := nu.unregister(v)
	removedV := nv.unregister(u)
	if removedU || removedV {
		mNetDisconnects.Inc()
	}
	return nil
}

// Apply executes an edge delta from an incremental grower against the live
// cluster: removed links are torn down, added links dialed. Node ids
// beyond the current size must have been created with AddNode first.
func (c *Cluster) Apply(delta core.EdgeDelta) error {
	for _, e := range delta.Removed {
		if err := c.Disconnect(e.U, e.V); err != nil {
			return err
		}
	}
	for _, e := range delta.Added {
		if err := c.Connect(e.U, e.V); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) pair(u, v int) (*node, *node, error) {
	nu, nv := c.lookup(u), c.lookup(v)
	if nu == nil || nv == nil || u == v {
		return nil, nil, fmt.Errorf("netflood: bad link (%d,%d)", u, v)
	}
	return nu, nv, nil
}

// nodeAddr returns the listener address of node idx, for reconnection.
func (c *Cluster) nodeAddr(idx int) (string, bool) {
	if nd := c.lookup(idx); nd != nil {
		return nd.ln.Addr().String(), true
	}
	return "", false
}

// wrapConn applies the cluster's fault plan to writes from node `from` on
// its link to node `to`. Each wrap gets its own derived RNG stream so a
// chaos run is reproducible from Options.Seed, while reconnections do not
// replay the exact drop pattern of the socket they replaced.
func (c *Cluster) wrapConn(from, to int, conn net.Conn) net.Conn {
	if c.opts.Faults == nil {
		return conn
	}
	plan := c.opts.Faults(from, to)
	if !plan.Active() {
		return conn
	}
	gen := c.wrapGen.Add(1)
	rng := sim.NewRNG(c.opts.Seed ^ uint64(from+1)<<40 ^ uint64(to+1)<<20 ^ gen<<4)
	return faultnet.Wrap(conn, plan, rng)
}

// Broadcast floods a payload from node src.
func (c *Cluster) Broadcast(src int, payload string) (Message, error) {
	nd := c.lookup(src)
	if nd == nil {
		return Message{}, fmt.Errorf("netflood: unknown node %d", src)
	}
	if len(payload) > maxFrame-maxHeader {
		return Message{}, fmt.Errorf("netflood: payload of %d bytes exceeds the frame limit", len(payload))
	}
	nd.mu.Lock()
	msg := Message{Src: src, Seq: nd.nextSeq, Payload: payload, Budget: c.opts.HopBudget}
	nd.nextSeq++
	nd.mu.Unlock()
	mNetBroadcasts.Inc()
	// Broadcast has no caller context; the round self-roots so a flood
	// driven from a traced campaign still records per-round spans.
	_, sp := trace.StartRoot(context.Background(), "netflood.broadcast")
	if sp.Live() {
		sp.SetAttr(trace.Int("src", int64(src)))
		sp.SetAttr(trace.Int("seq", int64(msg.Seq)))
	}
	nd.handle(msg)
	sp.End()
	return msg, nil
}

// Deliveries exposes the cluster-wide delivery stream: one entry per
// (node, message) first delivery. If consumers fall behind and the channel
// fills, further entries are counted (netflood.msgs.dropped) and dropped;
// the per-node Delivered logs always remain complete.
func (c *Cluster) Deliveries() <-chan Message { return c.deliveries }

// Delivered returns the messages node idx has delivered so far, in order.
func (c *Cluster) Delivered(idx int) []Message {
	nd := c.lookup(idx)
	if nd == nil {
		return nil
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return append([]Message(nil), nd.order...)
}

// deliveredCount is len(c.Delivered(idx)) without the copy.
func (c *Cluster) deliveredCount(idx int) int {
	nd := c.lookup(idx)
	if nd == nil {
		return 0
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.order)
}

// WaitDelivered blocks until every listed node has delivered at least want
// messages or the timeout passes, reporting whether the goal was met. It is
// the chaos harness's convergence check: under retransmission, delivery is
// eventual rather than immediate.
func (c *Cluster) WaitDelivered(nodes []int, want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, v := range nodes {
			if c.deliveredCount(v) < want {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// CrashNode closes node idx's listener and connections, simulating a
// process crash. Returns false if idx is out of range or already down.
// Safe to call concurrently with Broadcast, reconfiguration and Shutdown.
func (c *Cluster) CrashNode(idx int) bool {
	nd := c.lookup(idx)
	if nd == nil || !nd.shutdown() {
		return false
	}
	mNetCrashes.Inc()
	return true
}

// Alive reports whether node idx is still running.
func (c *Cluster) Alive(idx int) bool {
	nd := c.lookup(idx)
	return nd != nil && nd.alive()
}

// lookup returns node idx, or nil if idx is out of range.
func (c *Cluster) lookup(idx int) *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx < 0 || idx >= len(c.nodes) {
		return nil
	}
	return c.nodes[idx]
}

// Shutdown closes every listener and connection and waits for all node
// goroutines to exit. Idempotent and safe under concurrent CrashNode.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()
	for _, nd := range nodes {
		nd.shutdown()
	}
	for _, nd := range nodes {
		nd.wg.Wait()
	}
}

func (n *node) alive() bool {
	select {
	case <-n.closed:
		return false
	default:
		return true
	}
}

func (n *node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.acceptHandshake(conn)
		}()
	}
}

// acceptHandshake learns the remote id from the hello, installs the link,
// and reads frames until the connection dies.
func (n *node) acceptHandshake(conn net.Conn) {
	r := bufio.NewReader(conn)
	f, err := readFrame(r)
	if err != nil || f.Kind != "hello" {
		conn.Close()
		return
	}
	p := n.attachLocked(f.From, conn)
	if p == nil {
		conn.Close()
		return
	}
	n.readLoop(p, r)
}

// attach installs conn as the link to remote — reusing the existing
// peerConn (and its pending retransmission state) on reconnection — and
// starts a reader goroutine. Returns nil if the node is shut down.
func (n *node) attach(remote int, conn net.Conn, r *bufio.Reader) *peerConn {
	p := n.attachLocked(remote, conn)
	if p == nil {
		return nil
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.readLoop(p, r)
	}()
	return p
}

// attachLocked performs the registration half of attach without starting a
// reader: writes from this node to remote go through the (possibly fault-
// wrapped) conn from now on. Signal Connect waiters on every registration.
func (n *node) attachLocked(remote int, conn net.Conn) *peerConn {
	if !n.alive() {
		return nil
	}
	wrapped := n.c.wrapConn(n.idx, remote, conn)
	n.mu.Lock()
	p, ok := n.peers[remote]
	if ok {
		p.mu.Lock()
		old := p.conn
		p.conn = wrapped
		p.dead = false
		// In-flight messages ride over to the new socket immediately.
		for _, e := range p.pending {
			e.attempts = 0
			e.nextDue = time.Time{}
		}
		p.mu.Unlock()
		if old != nil && old != wrapped {
			old.Close()
		}
	} else {
		p = &peerConn{remote: remote, conn: wrapped}
		if n.c.opts.Reliable {
			p.pending = make(map[id]*pendingEntry)
		}
		n.peers[remote] = p
	}
	close(n.changed)
	n.changed = make(chan struct{})
	n.mu.Unlock()
	if n.c.opts.Reliable {
		// Pending entries were rescheduled for immediate retransmission on
		// the fresh socket; make sure the loop notices now, not at its next
		// planned wakeup.
		n.wakeRetransmit()
	}
	return p
}

// unregister closes and forgets the link to remote, reporting whether it
// existed.
func (n *node) unregister(remote int) bool {
	n.mu.Lock()
	p, ok := n.peers[remote]
	if ok {
		delete(n.peers, remote)
	}
	n.mu.Unlock()
	if ok {
		p.mu.Lock()
		p.dead = true
		p.pending = nil
		conn := p.conn
		p.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	}
	return ok
}

// readLoop consumes frames from one connection until it dies. Message
// frames are acked (reliable mode) and handled; ack frames settle pending
// retransmission state.
func (n *node) readLoop(p *peerConn, r *bufio.Reader) {
	for {
		f, err := readFrame(r)
		if err != nil {
			return // peer closed, link removed, or shutdown
		}
		switch {
		case f.Kind == "msg" && f.Msg != nil:
			if n.c.opts.Reliable {
				// Ack every copy, duplicates included: the first ack may
				// have been lost, and the sender retransmits until one
				// lands.
				n.sendAck(p, *f.Msg)
			}
			n.handle(*f.Msg)
		case f.Kind == "ack" && f.Msg != nil:
			n.handleAck(p, *f.Msg)
		}
	}
}

// handle delivers msg if new and forwards it on every registered link.
func (n *node) handle(msg Message) {
	if !n.alive() {
		return
	}
	n.mu.Lock()
	if !n.seen.first(msg.Src, msg.Seq) {
		n.mu.Unlock()
		mNetDuplicates.Inc()
		return
	}
	n.order = append(n.order, msg)
	n.mu.Unlock()
	mNetDelivered.Inc()
	hNetHops.Observe(int64(msg.Hops))

	select {
	case n.delivery <- msg:
	case <-n.closed:
		return
	default:
		// Stream consumers fell behind: count and drop rather than stall
		// the flood. Per-node order logs above stay complete.
		mNetDropped.Inc()
	}
	// Forwarded copies are one hop further from the source.
	m := msg
	m.Hops++
	if n.c.opts.HopBudget > 0 {
		if msg.Budget <= 0 {
			// The copy that won this node's dedup slot has no hop budget
			// left: the message is delivered here but travels no further —
			// its cost stays inside the statically-computed ceiling.
			mNetHopsExhausted.Inc()
			if trace.Enabled() {
				trace.Instant("netflood.budget_exhausted",
					trace.Int("node", int64(n.idx)),
					trace.Int("src", int64(msg.Src)),
					trace.Int("seq", int64(msg.Seq)))
			}
			return
		}
		m.Budget = msg.Budget - 1
	}
	// One encoding serves every link; nothing writes to its bytes.
	wire, err := encodeFrame(frame{Kind: "msg", Msg: &m})
	for _, p := range n.links() {
		if n.c.opts.Reliable {
			n.track(p, m)
		}
		// Best effort at the transport level: a closed peer just drops the
		// frame (the crash model); in reliable mode the retransmit path
		// owns recovery.
		mNetFramesSent.Inc()
		if err == nil {
			_ = p.write(wire, n.c.opts.WriteTimeout)
		}
	}
}

// links snapshots the registered links, so frames go out without n.mu held.
func (n *node) links() []*peerConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := make([]*peerConn, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	return peers
}

// shutdown closes the node exactly once, reporting whether this call did
// the work. Safe under concurrent CrashNode/Shutdown/broadcast.
func (n *node) shutdown() bool {
	ran := false
	n.closeOnce.Do(func() {
		ran = true
		close(n.closed)
		_ = n.ln.Close()
		for _, p := range n.links() {
			p.mu.Lock()
			conn := p.conn
			p.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
		}
	})
	return ran
}
