package livenet

// Live membership: the SWIM-lite failure detector (internal/membership)
// wired into the node's control state. The detector is a pure state
// machine used only under routeMu.Lock — by the reader that decoded a
// membership frame, by the API calls, and by its probe clock, a
// timerwheel tick that runs on a goroutine of its own (everyLocked). This
// file owns that clock, its network (packets ride the persistent
// transport like every other envelope), and the consequences of its
// verdicts: a peer confirmed Dead or Left is evicted from the address
// book and every NRT entry, and remembered by tombstone so a stale
// address-book merge cannot resurrect it. In-flight queries need no
// chasing: a resend re-reads the current tables (sendQuery). Tombstones
// travel inside book messages (wire.Book.Dead), closing the loop for
// nodes that were partitioned while the death was gossiped.

import (
	"time"

	"p2pshare/internal/membership"
	"p2pshare/internal/model"
)

// leaveFlushGrace is how long Leave waits after queueing its departure
// announcements before tearing the node down — enough for the transport
// writers to batch and flush the frames on loopback or LAN.
const leaveFlushGrace = 150 * time.Millisecond

// StartMembership turns on the failure detector with the given timing
// (zero fields take membership.DefaultConfig values). Every peer already
// in the address book is observed immediately; later peers join the
// view as hellos and book merges arrive. Idempotent: a second call is a
// no-op, and so is a call after Close.
func (n *Node) StartMembership(cfg membership.Config) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if !n.closed() {
		n.enableMembership(cfg)
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

// enableMembership builds the detector and starts its clock. Caller
// holds routeMu.Lock.
func (n *Node) enableMembership(cfg membership.Config) {
	if n.det != nil {
		return
	}
	n.det = membership.New(n.id, n.Addr(), cfg, n.rng.Int64())
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
	// themselves). A skipped tick just means the next one ≤ interval
	// later advances the detector.
	if interval /= 4; interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	n.everyLocked(interval, "membership_tick_skips", n.membershipTick)
}

// membershipTick advances the detector's timers and the adaptation
// layer's epoch clock. Caller holds routeMu.Lock.
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
// node's routing state and refreshes the membership gauges. Runs under
// routeMu.Lock after every detector interaction.
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
// from the routing structures: address book and NRTs. In-flight queries
// stop choosing it at their next resend, which re-reads these tables,
// so the query table needs no notice. The tombstone stays behind in the
// detector so book merges cannot resurrect the entry. Caller holds
// routeMu.Lock.
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
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if n.closed() || n.det == nil {
		return 0, 0
	}
	return n.det.Counts()
}

// Leave announces a graceful departure to every addressable peer (so
// receivers skip the suspicion phase and evict immediately), waits a
// moment for the transport to flush, and shuts the node down. Without a
// running detector it is just Close.
func (n *Node) Leave() {
	n.routeMu.Lock()
	sent := !n.closed() && n.det != nil
	if sent {
		lv := n.det.MakeLeave()
		n.book.forEach(func(id model.NodeID, _ string) bool {
			if id != n.id {
				n.send(id, lv)
			}
			return true
		})
	}
	n.routeMu.Unlock()
	if sent {
		time.Sleep(leaveFlushGrace)
	}
	n.Close()
}
