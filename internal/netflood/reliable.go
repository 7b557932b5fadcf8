package netflood

import (
	"bufio"
	"net"
	"time"

	"lhg/internal/obs/trace"
)

// This file is the reliable half of the protocol (Options.Reliable): every
// forwarded message is tracked per link until acked; a per-node loop
// retransmits overdue messages with exponential backoff and jitter; a peer
// that exhausts the missed-ack threshold is suspected and its link redialed
// (the hello rides the raw socket, so a lossy fault plan cannot wedge
// recovery); a peer that exhausts its reconnection budget is declared dead
// and its link torn down — graceful degradation back to the crash model,
// which the k-connected topology tolerates for up to k-1 peers.
//
// The storm-control options layer three bounds over the retry machinery,
// all derived statically by the ampguard analyzer: RetryBudget caps the
// total retransmissions a (link, message) may ever spend (reconnections
// reset the missed-ack window but never this budget), RetransmitRate gates
// retransmissions per link behind a token bucket so a lossy burst converts
// into counted deferrals instead of compounding load, and PathDiversity
// lets a node with enough healthy alternative links degrade a suspected
// peer instead of hammering it with redials.

// idleWait is the retransmit loop's sleep when nothing is pending; track
// and attachLocked wake the loop the moment new work appears, so the long
// timer is only a backstop.
const idleWait = time.Minute

// backoffFor returns the delay before retransmission attempt `attempt`
// (1-based): base doubled per attempt, clamped to max. Oversized attempt
// counts would overflow the shift into a negative duration, so the shift is
// capped and any non-positive or out-of-range result takes max.
func backoffFor(base, max time.Duration, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	shift := uint(attempt - 1)
	if shift >= 62 {
		return max
	}
	backoff := base << shift
	if backoff > max || backoff <= 0 {
		backoff = max
	}
	return backoff
}

// track records m as pending on link p until the remote acks it.
func (n *node) track(p *peerConn, m Message) {
	key := id{src: m.Src, seq: m.Seq}
	now := time.Now()
	p.mu.Lock()
	added := false
	if p.pending != nil && !p.dead {
		if _, ok := p.pending[key]; !ok {
			p.pending[key] = &pendingEntry{
				msg:       m,
				firstSent: now,
				nextDue:   now.Add(n.c.opts.RetransmitBase),
			}
			added = true
		}
	}
	p.mu.Unlock()
	if added {
		n.wakeRetransmit()
	}
}

// wakeRetransmit nudges the retransmit loop to recompute its sleep; a
// signal already in flight is enough, so the send never blocks.
func (n *node) wakeRetransmit() {
	if n.retrWake == nil {
		return
	}
	select {
	case n.retrWake <- struct{}{}:
	default:
	}
}

// sendAck acknowledges one received message copy on the link it arrived on.
func (n *node) sendAck(p *peerConn, m Message) {
	mNetAcksSent.Inc()
	_ = writeFrame(p, frame{Kind: "ack", Msg: &m}, n.c.opts.WriteTimeout)
}

// handleAck settles the pending entry the ack names and observes its RTT.
// Acks for already-settled messages (duplicate acks, acks raced by a
// reconnection reset) are ignored.
func (n *node) handleAck(p *peerConn, m Message) {
	key := id{src: m.Src, seq: m.Seq}
	p.mu.Lock()
	e, ok := p.pending[key]
	if ok {
		delete(p.pending, key)
	}
	p.rebuilds = 0 // an ack proves the link healthy: restore its budget
	p.mu.Unlock()
	if ok {
		mNetAcksRecv.Inc()
		hNetAckRTT.Observe(time.Since(e.firstSent).Microseconds())
	}
}

// retransmitLoop drives retransmission and peer health for one node. Each
// pass reports when the next pending entry comes due, and the loop sleeps
// exactly until then — a cluster with nothing pending costs no wakeups at
// all (the old implementation ticked at RetransmitBase/4 forever, so a
// small base with a large max busy-woke thousands of times per second).
// track and attachLocked wake the loop early when new work appears.
func (n *node) retransmitLoop() {
	defer n.wg.Done()
	timer := time.NewTimer(n.c.opts.RetransmitBase)
	defer timer.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-timer.C:
		case <-n.retrWake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		mNetRetrWakeups.Inc()
		next := n.retransmitDue(time.Now())
		d := idleWait
		if !next.IsZero() {
			d = time.Until(next)
			if d < time.Millisecond {
				d = time.Millisecond
			}
		}
		timer.Reset(d)
	}
}

// retransmitDue resends every overdue pending message, applies the
// storm-control budgets, and escalates peers whose messages have exhausted
// the missed-ack threshold. It returns the earliest due time among the
// entries that remain pending (zero if none), so the loop can sleep until
// work exists.
func (n *node) retransmitDue(now time.Time) time.Time {
	opts := &n.c.opts
	var nextWake time.Time
	earlier := func(t time.Time) {
		if nextWake.IsZero() || t.Before(nextWake) {
			nextWake = t
		}
	}
	for _, p := range n.links() {
		var resend []Message
		suspect := false
		exhausted := 0
		p.mu.Lock()
		if opts.RetransmitRate > 0 && p.pending != nil {
			// Refill the link's token bucket for the elapsed interval.
			if p.tokensAt.IsZero() {
				p.tokens = float64(opts.RetransmitBurst)
			} else if dt := now.Sub(p.tokensAt); dt > 0 {
				p.tokens += dt.Seconds() * opts.RetransmitRate
				if cap := float64(opts.RetransmitBurst); p.tokens > cap {
					p.tokens = cap
				}
			}
			p.tokensAt = now
		}
		for key, e := range p.pending {
			if e.nextDue.After(now) {
				earlier(e.nextDue)
				continue
			}
			if opts.RetryBudget > 0 && e.total >= opts.RetryBudget {
				// The hard ceiling: this (link, message) has spent its
				// whole statically-priced budget, reconnections included.
				// Abandon it — the flood's other links own delivery now.
				delete(p.pending, key)
				exhausted++
				continue
			}
			if e.attempts >= opts.MaxRetries {
				suspect = true
				continue
			}
			if opts.RetransmitRate > 0 {
				if p.tokens < 1 {
					// Storm gate: no admission token, so the retransmission
					// is deferred until one accrues — bounded, counted load
					// instead of a compounding burst.
					mNetRetrDeferred.Inc()
					e.nextDue = now.Add(tokenWait(p.tokens, opts.RetransmitRate))
					earlier(e.nextDue)
					continue
				}
				p.tokens--
			}
			e.attempts++
			e.total++
			backoff := backoffFor(opts.RetransmitBase, opts.RetransmitMax, e.attempts)
			e.nextDue = now.Add(n.rng.Jitter(backoff, 0.25))
			earlier(e.nextDue)
			resend = append(resend, e.msg)
		}
		p.mu.Unlock()
		for i := range resend {
			mNetRetransmits.Inc()
			_ = writeFrame(p, frame{Kind: "msg", Msg: &resend[i]}, opts.WriteTimeout)
		}
		if exhausted > 0 {
			mNetRetrBudgetX.Add(int64(exhausted))
			if trace.Enabled() {
				trace.Instant("netflood.retransmit.budget_exhausted",
					trace.Int("node", int64(n.idx)),
					trace.Int("peer", int64(p.remote)),
					trace.Int("abandoned", int64(exhausted)))
			}
		}
		if len(resend) > 0 && trace.Enabled() {
			trace.Instant("netflood.retransmit",
				trace.Int("node", int64(n.idx)),
				trace.Int("peer", int64(p.remote)),
				trace.Int("resent", int64(len(resend))))
		}
		if suspect {
			n.repairPeer(p, now)
		}
	}
	return nextWake
}

// tokenWait is the time until a bucket at `tokens` refilling at `rate`
// tokens/second holds one whole token.
func tokenWait(tokens, rate float64) time.Duration {
	d := time.Duration((1 - tokens) / rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// repairPeer handles a peer that stopped acking. With PathDiversity set and
// enough healthy alternative links, the node degrades instead of redialing:
// the suspect entries re-enter the (rate-gated, budget-capped) retransmit
// schedule at maximum backoff and the redial is deferred — a lossy link is
// throttled, not hammered. Otherwise the peer is redialed; a successful
// redial swaps the socket under the existing peerConn, so pending messages
// retransmit immediately on the fresh link. A failed dial — or an exhausted
// reconnection budget — declares the peer dead: the link is torn down, its
// pending traffic abandoned, and the flood continues on the surviving
// links.
func (n *node) repairPeer(p *peerConn, now time.Time) {
	if div := n.c.opts.PathDiversity; div > 0 && n.healthyPeers(p.remote) >= div-1 {
		mNetRepairDeferred.Inc()
		if trace.Enabled() {
			trace.Instant("netflood.repair.deferred",
				trace.Int("node", int64(n.idx)),
				trace.Int("peer", int64(p.remote)))
		}
		p.mu.Lock()
		for _, e := range p.pending {
			if e.attempts >= n.c.opts.MaxRetries {
				e.attempts = 0
				e.nextDue = now.Add(n.c.opts.RetransmitMax)
			}
		}
		p.mu.Unlock()
		n.wakeRetransmit()
		return
	}

	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.rebuilds++
	exhausted := p.rebuilds > n.c.opts.MaxReconnects
	p.mu.Unlock()

	if !exhausted {
		if addr, ok := n.c.nodeAddr(p.remote); ok {
			if conn, err := net.DialTimeout("tcp", addr, n.c.opts.HandshakeTimeout); err == nil {
				hello := frame{Kind: "hello", From: n.idx}
				if err := writeFrameTo(conn, hello, n.c.opts.WriteTimeout); err == nil {
					if n.attach(p.remote, conn, bufio.NewReader(conn)) != nil {
						mNetReconnects.Inc()
						return
					}
				}
				conn.Close()
			}
		}
	}
	if n.unregister(p.remote) {
		mNetPeersDead.Inc()
	}
}

// healthyPeers counts the live links this node holds besides the one to
// `excluding` — the remaining path diversity the escalation gate consults.
func (n *node) healthyPeers(excluding int) int {
	healthy := 0
	for _, p := range n.links() {
		p.mu.Lock()
		if p.remote != excluding && !p.dead && p.conn != nil {
			healthy++
		}
		p.mu.Unlock()
	}
	return healthy
}
