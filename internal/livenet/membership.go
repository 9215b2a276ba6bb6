package livenet

// Live membership: the SWIM-lite failure detector (internal/membership)
// wired into the control loop. The detector is a pure state machine —
// this file owns its clock (a probe goroutine funneling ticks through
// the command channel, so all detector access is control-loop
// serialized), its network (packets ride the persistent transport like
// every other envelope), and the consequences of its verdicts: a peer
// confirmed Dead or Left is evicted from the address book and every NRT
// entry, and remembered by tombstone so a stale address-book merge
// cannot resurrect it. In-flight queries' resend-target lists are NOT
// chased here — they live on the engine shards, which reconcile against
// the book lazily in their sweep (refillEntry) just before resending.
// Tombstones travel inside book messages (wire.Book.Dead), closing the
// loop for nodes that were partitioned while the death was gossiped.

import (
	"time"

	"p2pshare/internal/membership"
	"p2pshare/internal/model"
	"p2pshare/internal/timerwheel"
)

// leaveFlushGrace is how long Leave waits after queueing its departure
// announcements before tearing the node down — enough for the transport
// writers to batch and flush the frames on loopback or LAN.
const leaveFlushGrace = 150 * time.Millisecond

// StartMembership turns on the failure detector with the given timing
// (zero fields take membership.DefaultConfig values). Every peer already
// in the address book is observed immediately; later peers join the
// view as hellos and book merges arrive. Idempotent: a second call is a
// no-op. Safe to call any time after the node's loops are running.
func (n *Node) StartMembership(cfg membership.Config) {
	started := make(chan struct{})
	select {
	case n.cmds <- func(n *Node) {
		n.enableMembership(cfg)
		close(started)
	}:
		select {
		case <-started:
		case <-n.done:
			// The control loop may have run the command just before
			// shutting down; either way there is nothing left to wait for.
		}
	case <-n.done:
	}
}

// StartMembership turns on the failure detector on every node of a
// launched cluster.
func (c *Cluster) StartMembership(cfg membership.Config) {
	for _, n := range c.Nodes {
		if n != nil {
			n.StartMembership(cfg)
		}
	}
}

// enableMembership builds the detector and starts its clock. Runs in the
// event loop.
func (n *Node) enableMembership(cfg membership.Config) {
	if n.det != nil {
		return
	}
	n.det = membership.New(n.id, n.Addr(), cfg, n.rng.Int63())
	now := time.Now()
	n.book.forEach(func(id model.NodeID, addr string) bool {
		if id != n.id {
			n.det.Observe(id, addr, now)
		}
		return true
	})
	n.drainMembership()

	interval := cfg.ProbeInterval
	if interval <= 0 {
		interval = membership.DefaultConfig().ProbeInterval
	}
	// Tick faster than the probe interval so ping/probe timeouts are
	// checked with reasonable granularity (Tick rate-limits the probes
	// themselves). The clock rides the shared timerwheel instead of a
	// dedicated ticker goroutine; the offer into the command channel is
	// non-blocking (wheel callbacks must not block), and a dropped tick
	// just means the next one ≤ interval later advances the detector.
	if interval /= 4; interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	n.addTimer(timerwheel.Default().Every(interval, func(now time.Time) {
		select {
		case n.cmds <- func(n *Node) { n.membershipTick(now) }:
		default:
			n.stats.Add("membership_tick_skips", 1)
		}
	}))
}

// membershipTick advances the detector's timers and the adaptation
// layer's epoch clock. Runs in the event loop.
func (n *Node) membershipTick(now time.Time) {
	n.sendPackets(n.det.Tick(now))
	n.drainMembership()
	n.adaptTick(now)
}

// sendPackets transmits detector protocol messages. The packet's own
// address hint covers targets the book does not (an indirect-probe
// target evicted from the book but still carried in a ping-req).
func (n *Node) sendPackets(pkts []membership.Packet) {
	for _, p := range pkts {
		addr, ok := n.book.get(p.To)
		if !ok {
			addr = p.Addr
		}
		if addr == "" {
			n.stats.Add("send_no_addr", 1)
			continue
		}
		n.tr.enqueue(p.To, addr, envelope{From: n.id, Msg: p.Msg})
	}
}

// drainMembership folds the detector's state transitions into the
// node's routing state and refreshes the membership gauges. Runs in the
// event loop after every detector interaction.
func (n *Node) drainMembership() {
	for _, ev := range n.det.Events() {
		switch ev.State {
		case membership.Alive:
			// New or resurrected member: (re)learn its address.
			if ev.Addr != "" {
				n.book.set(ev.ID, ev.Addr)
			}
		case membership.Suspect:
			n.stats.Add("membership_suspicions", 1)
		case membership.Dead, membership.Left:
			n.evictDeadPeer(ev.ID)
		}
	}
	alive, suspect := n.det.Counts()
	n.gauges.Set("membership_alive", int64(alive))
	n.gauges.Set("membership_suspect", int64(suspect))
}

// evictDeadPeer removes a confirmed-dead (or gracefully departed) peer
// from the routing structures the control loop owns: address book and
// NRTs. In-flight queries' resend-target lists are pruned lazily by the
// owning shard's sweep (refillEntry drops book-absent members before a
// resend), so no cross-shard broadcast is needed here. The tombstone
// stays behind in the detector so book merges cannot resurrect the
// entry.
func (n *Node) evictDeadPeer(peer model.NodeID) {
	if n.book.del(peer) {
		n.stats.Add("book_evictions", 1)
	}
	n.evictPeer(peer)
	n.stats.Add("membership_evictions", 1)
}

// MembershipCounts reports the node's live view: members alive
// (including itself) and members under suspicion. Zeros when membership
// is not running.
func (n *Node) MembershipCounts() (alive, suspect int) {
	type counts struct{ a, s int }
	ch := make(chan counts, 1)
	select {
	case n.cmds <- func(n *Node) {
		if n.det == nil {
			ch <- counts{}
			return
		}
		a, s := n.det.Counts()
		ch <- counts{a, s}
	}:
		select {
		case c := <-ch:
			return c.a, c.s
		case <-n.done:
			// The control loop may have answered just before shutting
			// down; prefer the real counts when present.
			select {
			case c := <-ch:
				return c.a, c.s
			default:
				return 0, 0
			}
		}
	case <-n.done:
		return 0, 0
	}
}

// Leave announces a graceful departure to every addressable peer (so
// receivers skip the suspicion phase and evict immediately), waits a
// moment for the transport to flush, and shuts the node down. Without a
// running detector it is just Close.
func (n *Node) Leave() {
	queued := make(chan bool, 1)
	select {
	case n.cmds <- func(n *Node) {
		if n.det == nil {
			queued <- false
			return
		}
		lv := n.det.MakeLeave()
		n.book.forEach(func(id model.NodeID, _ string) bool {
			if id != n.id {
				n.send(id, lv)
			}
			return true
		})
		queued <- true
	}:
		select {
		case sent := <-queued:
			if sent {
				time.Sleep(leaveFlushGrace)
			}
		case <-n.done:
			select {
			case sent := <-queued:
				if sent {
					time.Sleep(leaveFlushGrace)
				}
			default:
			}
		}
	case <-n.done:
	}
	n.Close()
}
