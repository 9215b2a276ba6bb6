package livenet

// Live membership: the SWIM-lite failure detector (internal/membership)
// wired into the node's control state. The detector is a pure state
// machine used only under routeMu.Lock — by the reader that decoded a
// membership frame, by the API calls, and by its probe clock, a
// timerwheel tick that runs on a goroutine of its own (everyLocked). This
// file owns that clock, its network (packets ride the persistent
// transport like every other envelope), and the consequences of its
// verdicts. The detector is the only thing that takes a peer out of
// routing: a peer confirmed Dead or Left is evicted from the address
// book, which is what makes an NRT member routable (Node.routable), and
// remembered by tombstone so a stale address-book merge cannot
// resurrect it. The NRT keeps the peer, so when it comes back (a hello,
// an Alive rumour) it routes again the moment its address is back in
// the book. In-flight queries need no chasing: a resend re-reads the
// current tables (routeQuery). Tombstones travel inside book messages
// (wire.Book.Dead), closing the loop for nodes that were partitioned
// while the death was gossiped.

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

// membershipTick advances the detector's timers; once the node is
// leaving it does nothing. Caller holds routeMu.Lock.
func (n *Node) membershipTick(now time.Time) {
	if !n.probing() {
		return
	}
	n.sendPackets(n.det.Tick(now))
	n.drainMembership()
}

// probing reports whether the detector runs: it is on and the node has
// not announced its Leave. A leaver neither probes nor answers probes:
// its peers tombstoned it on the Leave, and a ping from a tombstoned
// member is proof it came back (membership.Detector.OnPing), so one
// late probe would bring it back to life at its peers. Caller holds
// routeMu.
func (n *Node) probing() bool { return n.det != nil && !n.leaving }

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
// node's routing state and refreshes the membership counts and the
// count of rumors it refused. Runs under
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
	n.stats.MembershipBadRumors.Store(int64(n.det.Rejected()))
}

// evictDeadPeer takes a confirmed-dead (or gracefully departed) peer out
// of routing by deleting its address-book entry; its NRT entries stay,
// unroutable until its address returns. In-flight queries stop choosing
// it at their next resend, which re-reads the book, so the query table
// needs no notice. The tombstone stays behind in the detector so book
// merges cannot resurrect the entry. Caller holds routeMu.Lock.
func (n *Node) evictDeadPeer(peer model.NodeID) {
	if n.book.del(peer) {
		n.stats.BookEvictions.Add(1)
	}
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
// The detector stops before the Leave goes out (probing). Without a
// running detector it is just Close.
func (n *Node) Leave() {
	n.routeMu.Lock()
	sent := !n.closed() && n.probing()
	if sent {
		n.leaving = true
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
