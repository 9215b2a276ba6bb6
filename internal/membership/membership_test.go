package membership

import (
	"fmt"
	"math"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// net is a virtual-time harness: detectors exchange packets instantly,
// with per-node partitions, driven by Step() ticks.
type net struct {
	t    *testing.T
	cfg  Config
	ds   map[model.NodeID]*Detector
	down map[model.NodeID]bool // partitioned/killed: packets to and from it vanish
	now  time.Time
}

func newNet(t *testing.T, n int) *net {
	cfg := Config{ProbeInterval: 10 * time.Millisecond}
	w := &net{
		t: t, cfg: cfg,
		ds:   make(map[model.NodeID]*Detector),
		down: make(map[model.NodeID]bool),
		now:  time.Unix(1000, 0),
	}
	for i := 0; i < n; i++ {
		id := model.NodeID(i)
		w.ds[id] = New(id, fmt.Sprintf("10.0.0.%d:1", i), cfg, int64(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				w.ds[model.NodeID(i)].Observe(model.NodeID(j), fmt.Sprintf("10.0.0.%d:1", j), w.now)
			}
		}
	}
	return w
}

// deliver routes packets (recursively: handlers emit more packets).
func (w *net) deliver(from model.NodeID, pkts []Packet) {
	if w.down[from] {
		return
	}
	for _, p := range pkts {
		if w.down[p.To] {
			continue
		}
		d, ok := w.ds[p.To]
		if !ok {
			continue
		}
		var replies []Packet
		switch m := p.Msg.(type) {
		case Ping:
			replies = d.OnPing(from, m, w.now)
		case Ack:
			replies = d.OnAck(from, m, w.now)
		case PingReq:
			replies = d.OnPingReq(from, m, w.now)
		case Leave:
			d.OnLeave(m, w.now)
		default:
			w.t.Fatalf("unknown packet type %T", p.Msg)
		}
		w.deliver(p.To, replies)
	}
}

// step advances virtual time by one probe interval and ticks everyone.
func (w *net) step() {
	w.now = w.now.Add(w.cfg.ProbeInterval)
	for id, d := range w.ds {
		if w.down[id] {
			continue
		}
		w.deliver(id, d.Tick(w.now))
	}
}

func TestHealthyClusterStaysAlive(t *testing.T) {
	w := newNet(t, 5)
	for i := 0; i < 40; i++ {
		w.step()
	}
	for id, d := range w.ds {
		alive, suspect := d.Counts()
		if alive != 5 || suspect != 0 {
			t.Errorf("node %d: alive=%d suspect=%d, want 5/0", id, alive, suspect)
		}
		for _, ev := range d.Events() {
			if ev.State != Alive {
				t.Errorf("node %d saw spurious transition %+v", id, ev)
			}
		}
	}
}

func TestDeadMemberDetectedAndDisseminated(t *testing.T) {
	w := newNet(t, 5)
	for i := 0; i < 10; i++ {
		w.step()
	}
	victim := model.NodeID(3)
	w.down[victim] = true

	// Worst-case detection: full rotation before the victim is probed,
	// plus probe and suspect timeouts, plus dissemination slack.
	rounds := 4 + int((w.cfg.probeTimeout()+w.cfg.suspectTimeout())/w.cfg.ProbeInterval) + 12
	for i := 0; i < rounds; i++ {
		w.step()
	}
	for id, d := range w.ds {
		if id == victim || w.down[id] {
			continue
		}
		m, ok := d.Member(victim)
		if !ok || m.State != Dead {
			t.Errorf("node %d: victim state = %+v (found %v), want Dead", id, m, ok)
		}
		if d.IsLive(victim) {
			t.Errorf("node %d still routes to dead victim", id)
		}
		if tombs := d.Tombstones(); tombs[victim] != m.Inc {
			t.Errorf("node %d: tombstone = %v, want inc %d", id, tombs, m.Inc)
		}
		alive, _ := d.Counts()
		if alive != 4 {
			t.Errorf("node %d: alive=%d, want 4", id, alive)
		}
	}
}

func TestSuspicionRefutedByIncarnationBump(t *testing.T) {
	w := newNet(t, 4)
	for i := 0; i < 8; i++ {
		w.step()
	}
	// Plant a false suspicion of node 2 at node 0 and let it gossip.
	d0, d2 := w.ds[0], w.ds[2]
	d0.apply(Update{ID: 2, State: Suspect, Inc: 0}, w.now)
	if m, _ := d0.Member(2); m.State != Suspect {
		t.Fatalf("planted suspicion did not take: %+v", m)
	}
	// Node 2 is up: within the suspect window it hears the rumor (via
	// piggyback on node 0's pings/acks), refutes with an incarnation
	// bump, and the refutation spreads.
	for i := 0; i < 4; i++ {
		w.step()
	}
	if d2.Incarnation() == 0 {
		t.Fatal("node 2 never refuted the suspicion (incarnation still 0)")
	}
	for i := 0; i < 12; i++ {
		w.step()
	}
	for id, d := range w.ds {
		m, ok := d.Member(2)
		if id == 2 {
			continue
		}
		if !ok || m.State != Alive || m.Inc < d2.Incarnation() {
			t.Errorf("node %d: member 2 = %+v, want Alive at inc >= %d", id, m, d2.Incarnation())
		}
	}
}

func TestGracefulLeaveSkipsSuspicion(t *testing.T) {
	w := newNet(t, 4)
	for i := 0; i < 6; i++ {
		w.step()
	}
	leaver := w.ds[1]
	lv := leaver.MakeLeave()
	w.down[1] = true
	for id, d := range w.ds {
		if id == 1 {
			continue
		}
		d.OnLeave(lv, w.now)
		if m, _ := d.Member(1); m.State != Left {
			t.Errorf("node %d: state after leave = %v, want Left", id, m.State)
		}
		if d.IsLive(1) {
			t.Errorf("node %d still routes to left member", id)
		}
	}
}

func TestTombstoneBlocksObserveButNotRejoin(t *testing.T) {
	w := newNet(t, 3)
	d := w.ds[0]
	d.ApplyTombstone(2, 5, w.now)
	if m, _ := d.Member(2); m.State != Dead {
		t.Fatalf("tombstone did not kill member: %+v", m)
	}
	// A stale book merge must not resurrect it.
	d.Observe(2, "10.0.0.2:1", w.now)
	if d.IsLive(2) {
		t.Fatal("Observe resurrected a tombstoned member")
	}
	// A live hello does, with an incarnation past the tombstone.
	d.Rejoin(2, "10.0.0.2:9", w.now)
	m, _ := d.Member(2)
	if m.State != Alive || m.Inc <= 5 {
		t.Fatalf("Rejoin: %+v, want Alive with inc > 5", m)
	}
	if m.Addr != "10.0.0.2:9" {
		t.Fatalf("Rejoin kept stale addr: %+v", m)
	}
}

func TestTombstonesAgeOut(t *testing.T) {
	w := newNet(t, 4)
	for i := 0; i < 8; i++ {
		w.step()
	}
	victim := model.NodeID(3)
	w.down[victim] = true
	rounds := 4 + int((w.cfg.probeTimeout()+w.cfg.suspectTimeout())/w.cfg.ProbeInterval) + 12
	for i := 0; i < rounds; i++ {
		w.step()
	}
	for id, d := range w.ds {
		if id == victim {
			continue
		}
		if _, ok := d.Tombstones()[victim]; !ok {
			t.Fatalf("node %d: no tombstone for the dead victim", id)
		}
	}
	// Step past the TTL: the tombstone (and the member record it backs)
	// must be forgotten, so a long-running node does not grow one entry
	// per departed peer forever.
	ttlRounds := int(w.cfg.tombstoneTTL()/w.cfg.ProbeInterval) + 10
	for i := 0; i < ttlRounds; i++ {
		w.step()
	}
	for id, d := range w.ds {
		if id == victim {
			continue
		}
		if ts := d.Tombstones(); len(ts) != 0 {
			t.Errorf("node %d: tombstones %v survived the TTL", id, ts)
		}
		if m, ok := d.Member(victim); ok {
			t.Errorf("node %d: departed member still reported: %+v", id, m)
		}
		alive, suspect := d.Counts()
		if alive != 3 || suspect != 0 {
			t.Errorf("node %d: alive=%d suspect=%d after aging, want 3/0", id, alive, suspect)
		}
	}
}

func TestIndirectProbeSavesOneWayPartition(t *testing.T) {
	// Node 0 cannot reach node 1 directly, but proxies can. The
	// harness models this by dropping only 0→1 pings.
	cfg := Config{ProbeInterval: 10 * time.Millisecond}
	now := time.Unix(1000, 0)
	ds := map[model.NodeID]*Detector{}
	for i := 0; i < 4; i++ {
		ds[model.NodeID(i)] = New(model.NodeID(i), fmt.Sprintf("10.0.0.%d:1", i), cfg, int64(i))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				ds[model.NodeID(i)].Observe(model.NodeID(j), fmt.Sprintf("10.0.0.%d:1", j), now)
			}
		}
	}
	var deliver func(from model.NodeID, pkts []Packet)
	deliver = func(from model.NodeID, pkts []Packet) {
		for _, p := range pkts {
			if _, isPing := p.Msg.(Ping); isPing && from == 0 && p.To == 1 {
				continue // the broken direct link
			}
			d := ds[p.To]
			var replies []Packet
			switch m := p.Msg.(type) {
			case Ping:
				replies = d.OnPing(from, m, now)
			case Ack:
				replies = d.OnAck(from, m, now)
			case PingReq:
				replies = d.OnPingReq(from, m, now)
			}
			deliver(p.To, replies)
		}
	}
	for i := 0; i < 60; i++ {
		now = now.Add(cfg.ProbeInterval)
		for id, d := range ds {
			deliver(id, d.Tick(now))
		}
	}
	// Indirect acks through the proxies must have kept node 1 alive at
	// node 0 despite every direct ping being lost.
	if m, _ := ds[0].Member(1); m.State != Alive {
		t.Fatalf("node 0 sees node 1 as %v; indirect probes should have vouched for it", m.State)
	}
}

func TestPiggybackBudgetBoundsQueue(t *testing.T) {
	d := New(0, "a:1", DefaultConfig(), 1)
	now := time.Unix(1000, 0)
	for i := 1; i <= 20; i++ {
		d.Observe(model.NodeID(i), "x:1", now)
	}
	d.queueUpdate(Update{ID: 5, State: Suspect, Inc: 1})
	d.QueueMove(Move{Category: 3, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}})
	budget := d.retransmitBudget()
	for i := 0; i < budget+5; i++ {
		d.piggyback()
	}
	if len(d.rumors) != 0 {
		t.Fatalf("rumor queue not drained after budget: %d left", len(d.rumors))
	}
	if us, mvs := d.piggyback(); us != nil || mvs != nil {
		t.Fatalf("piggyback after drain = %v, %v; want nil, nil", us, mvs)
	}
}

// TestPiggybackOneQueueForBothKinds: liveness rumors and DCRT rows share
// the maxPiggyback cap and one least-sent-first order, and a fresher row
// for a category replaces the queued one with a fresh budget.
func TestPiggybackOneQueueForBothKinds(t *testing.T) {
	const each = 5 // of each kind: 2·each rumors overflow the cap of 8
	if maxPiggyback != 8 {
		t.Fatalf("maxPiggyback = %d; the expectations below assume 8", maxPiggyback)
	}
	d := New(0, "a:1", DefaultConfig(), 1)
	now := time.Unix(1000, 0)
	for i := 1; i <= 20; i++ {
		d.Observe(model.NodeID(i), "x:1", now)
	}
	for i := 1; i <= each; i++ {
		d.queueUpdate(Update{ID: model.NodeID(i), State: Suspect, Inc: 1})
		d.QueueMove(Move{Category: catalog.CategoryID(i), Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}})
	}
	// Ten rumors, cap eight: liveness first at equal sends, then the
	// least-sent rows ride the next message ahead of anything sent once.
	us, mvs := d.piggyback()
	if len(us) != each || len(mvs) != 3 || mvs[0].Category != 1 || mvs[2].Category != 3 {
		t.Fatalf("first piggyback = %v, %v; want %d updates and the rows of categories 1–3", us, mvs, each)
	}
	us, mvs = d.piggyback()
	if len(mvs) != 3 || mvs[0].Category != 4 || mvs[1].Category != 5 || mvs[2].Category != 1 || len(us) != each {
		t.Fatalf("second piggyback = %v, %v; want categories 4 and 5 first, then %d updates and category 1's row", us, mvs, each)
	}

	fresh := Move{Category: 1, Entry: protocol.DCRTEntry{Cluster: 0, MoveCounter: 2}}
	d.QueueMove(fresh)
	_, mvs = d.piggyback()
	if len(mvs) == 0 || mvs[0] != fresh {
		t.Fatalf("after a fresher row: moves %v, want %+v first (never sent)", mvs, fresh)
	}
	if d.rumors[rumorKey{dcrtRow, 1}].sends != 1 {
		t.Fatalf("replaced row sent %d times, want 1", d.rumors[rumorKey{dcrtRow, 1}].sends)
	}
}

func TestSupersedesRules(t *testing.T) {
	m := &Member{ID: 1, State: Alive, Inc: 3}
	cases := []struct {
		u    Update
		want bool
	}{
		{Update{ID: 1, State: Alive, Inc: 3}, false},   // same state, same inc
		{Update{ID: 1, State: Suspect, Inc: 3}, true},  // worse state wins at same inc
		{Update{ID: 1, State: Suspect, Inc: 2}, false}, // stale inc never wins
		{Update{ID: 1, State: Alive, Inc: 4}, true},    // newer inc always wins
		{Update{ID: 1, State: Dead, Inc: 3}, true},     // dead beats alive at same inc
	}
	for i, c := range cases {
		if got := supersedes(c.u, m); got != c.want {
			t.Errorf("case %d: supersedes(%+v) = %v, want %v", i, c.u, got, c.want)
		}
	}
}

// TestImplausibleIncarnationRejected: a rumor whose incarnation lies
// past protocol.MaxVersionJump of the view's — what one corrupt frame
// can carry — is counted and dropped, whoever it names. About a peer, it
// would otherwise be gossiped until the healthy peer, unable to outbid
// it, was declared dead behind a tombstone no rejoin could beat; about
// the node itself, it would wrap the incarnation back to 0.
func TestImplausibleIncarnationRejected(t *testing.T) {
	t.Run("peer", func(t *testing.T) {
		w := newNet(t, 4)
		for i := 0; i < 8; i++ {
			w.step()
		}
		d0 := w.ds[0]
		d0.apply(Update{ID: 2, State: Suspect, Inc: math.MaxUint64}, w.now)
		d0.ApplyTombstone(3, math.MaxUint64, w.now)
		d0.OnLeave(Leave{ID: 1, Inc: protocol.MaxVersionJump + 1}, w.now)
		if got := d0.Rejected(); got != 3 {
			t.Fatalf("Rejected() = %d, want 3", got)
		}
		rounds := 4 + int((w.cfg.probeTimeout()+w.cfg.suspectTimeout())/w.cfg.ProbeInterval) + 12
		for i := 0; i < rounds; i++ {
			w.step()
		}
		for id, d := range w.ds {
			if alive, suspect := d.Counts(); alive != 4 || suspect != 0 {
				t.Errorf("node %d: alive=%d suspect=%d, want 4/0", id, alive, suspect)
			}
		}
		// A plausible jump still wins.
		d0.apply(Update{ID: 2, State: Suspect, Inc: protocol.MaxVersionJump}, w.now)
		if m, _ := d0.Member(2); m.State != Suspect || m.Inc != protocol.MaxVersionJump {
			t.Fatalf("plausible rumor not applied: %+v", m)
		}
	})
	t.Run("self", func(t *testing.T) {
		w := newNet(t, 3)
		d := w.ds[1]
		for inc := uint64(0); inc < 3; inc++ {
			d.apply(Update{ID: 1, State: Suspect, Inc: inc}, w.now) // refuted: inc+1
		}
		d.apply(Update{ID: 1, State: Dead, Inc: math.MaxUint64}, w.now)
		if got := d.Incarnation(); got != 3 {
			t.Fatalf("incarnation = %d after a hostile rumor, want 3", got)
		}
		if got := d.Rejected(); got != 1 {
			t.Fatalf("Rejected() = %d, want 1", got)
		}
	})
}
