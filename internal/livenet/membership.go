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
// chasing: a resend re-reads the current tables (routeQuery). Tombstones
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

// enableMembership builds the detector and starts its clock. Every
// peer already in the address book is observed immediately, in id
// order; later peers join the view as hellos and book merges arrive.
// Caller holds routeMu.Lock.
func (n *Node) enableMembership(cfg membership.Config) {
	n.det = membership.New(n.id, n.Addr(), cfg, n.rng.Int64())
	now := n.io.now()
	n.book.forEachByID(func(id model.NodeID, addr string) {
		if id != n.id {
			n.det.Observe(id, addr, now)
		}
	})
	n.drainMembership()

	// Tick faster than the probe interval so ping/probe timeouts are
	// checked with reasonable granularity (Tick rate-limits the probes
	// themselves). A skipped tick just means the next one ≤ interval
	// later advances the detector.
	interval := max(cfg.ProbeInterval/4, 5*time.Millisecond)
	n.everyLocked(interval, &n.stats.MembershipTickSkips, n.membershipTick)
}

// membershipTick advances the detector's timers. Caller holds
// routeMu.Lock.
func (n *Node) membershipTick(now time.Time) {
	n.sendPackets(n.det.Tick(now))
	n.drainMembership()
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
			n.stats.SendNoAddr.Add(1)
			continue
		}
		n.io.send(outFrame{to: p.To, addr: addr, msg: p.Msg}, laneQueue)
	}
}

// drainMembership folds the detector's state transitions into the
// node's routing state and refreshes the membership counts. Runs under
// routeMu.Lock after every detector interaction.
func (n *Node) drainMembership() {
	for _, ev := range n.det.Events() {
		switch ev.State {
		case membership.Alive:
			// New or resurrected member: (re)learn its address.
			if ev.Addr != "" {
				n.book.set(ev.ID, ev.Addr)
			}
		case membership.Dead, membership.Left:
			n.evictDeadPeer(ev.ID)
		}
	}
	alive, suspect := n.det.Counts()
	n.memberAlive.Store(int64(alive))
	n.memberSuspect.Store(int64(suspect))
}

// evictDeadPeer removes a confirmed-dead (or gracefully departed) peer
// from the routing structures: address book and NRTs. In-flight queries
// stop choosing it at their next resend, which re-reads these tables,
// so the query table needs no notice. The tombstone stays behind in the
// detector so book merges cannot resurrect the entry. Caller holds
// routeMu.Lock.
func (n *Node) evictDeadPeer(peer model.NodeID) {
	if n.book.del(peer) {
		n.stats.BookEvictions.Add(1)
	}
	n.evictPeer(peer)
	n.stats.MembershipEvictions.Add(1)
}

// MembershipCounts reports the node's live view: members alive
// (including itself) and members under suspicion, as drainMembership
// last stored them. Zeros when membership is not running or the node is
// closed.
func (n *Node) MembershipCounts() (alive, suspect int) {
	if n.closed() {
		return 0, 0
	}
	return int(n.memberAlive.Load()), int(n.memberSuspect.Load())
}

// Leave announces a graceful departure to every addressable peer, in id
// order (so receivers skip the suspicion phase and evict immediately),
// waits a moment for the transport to flush, and shuts the node down.
// Without a running detector it is just Close.
func (n *Node) Leave() {
	n.routeMu.Lock()
	sent := !n.closed() && n.det != nil
	if sent {
		lv := n.det.MakeLeave()
		n.book.forEachByID(func(id model.NodeID, _ string) {
			if id != n.id {
				n.io.send(n.route(id, lv), laneQueue)
			}
		})
	}
	n.routeMu.Unlock()
	if sent {
		grace, _ := n.io.after(leaveFlushGrace)
		<-grace
	}
	n.Close()
}
