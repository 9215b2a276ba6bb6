// Package membership implements a SWIM-lite failure detector for the
// live network: periodic round-robin pings, indirect probes through k
// proxies when a direct ping goes unanswered, a suspect→dead state
// machine with timeouts, incarnation numbers so a falsely-suspected node
// can refute the rumor, and update piggybacking on every protocol
// message so state changes spread epidemically without dedicated
// broadcast traffic (Das, Gupta & Motivala, "SWIM: Scalable
// Weakly-consistent Infection-style Process Group Membership Protocol",
// DSN 2002 — the same family of detector Ayyasamy & Sivanandam assume
// for their cluster-based replication architecture).
//
// The piggyback queue is the node's one epidemic channel: beside the
// liveness rumors it carries DCRT rows (§6.1.2 lazy rebalancing), which
// the caller merges on receipt and queues with QueueMove.
//
// The Detector is a pure state machine: it owns no goroutines, no
// timers, and no sockets. The caller — in practice one livenet node —
// drives it with Tick(now) and the On* handlers, all of which return
// the packets to transmit; state-change events accumulate and are
// drained with Events(). Methods are NOT safe for concurrent use; the
// node serializes them under its routing lock, like the rest of its
// control state.
package membership

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// State is a member's liveness state.
type State uint8

const (
	// Alive members are probed and routed to.
	Alive State = iota
	// Suspect members failed a probe round; they are still routed to
	// (the suspicion may be refuted) but a timeout away from Dead.
	Suspect
	// Dead members exhausted the suspect timeout; they are evicted
	// everywhere and remembered by tombstone until they rejoin with a
	// fresh hello.
	Dead
	// Left members announced a graceful departure; treated like Dead but
	// declared instantly, with no suspicion phase.
	Left
)

// String renders the state for logs and stats.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Left:
		return "left"
	}
	return "unknown"
}

// Update is one piggybacked membership rumor: node ID is in State at
// incarnation Inc. Addr rides along so a receiver that never met the
// node can still address it (and so a resurrection can restore the
// address book entry).
type Update struct {
	ID    model.NodeID
	Addr  string
	State State
	Inc   uint64
}

// Move is one piggybacked DCRT row: Category is served by
// Entry.Cluster as of Entry.MoveCounter (§6.1.2 lazy rebalancing).
type Move struct {
	Category catalog.CategoryID
	Entry    protocol.DCRTEntry
}

// Ping is a direct liveness probe. Addr is the sender's listen address,
// letting a receiver that had already declared the sender dead restore
// it. Every protocol message carries piggybacked updates and moves.
type Ping struct {
	Seq     uint64
	Addr    string
	Updates []Update
	Moves   []Move
}

// Ack answers a Ping (directly, or relayed by a ping-req proxy). Target
// is the node whose liveness the ack vouches for — the sender itself on
// the direct path, the probed third party on the indirect path.
type Ack struct {
	Seq     uint64
	Target  model.NodeID
	Updates []Update
	Moves   []Move
}

// PingReq asks a proxy to probe Target on the origin's behalf (the SWIM
// indirect probe, which distinguishes "target is down" from "my link to
// the target is down"). Addr is the target's listen address in case the
// proxy cannot resolve the ID itself.
type PingReq struct {
	Seq     uint64
	Target  model.NodeID
	Addr    string
	Updates []Update
	Moves   []Move
}

// Leave is a graceful departure announcement; receivers skip the
// suspicion phase entirely.
type Leave struct {
	ID  model.NodeID
	Inc uint64
}

// Packet is one protocol message the caller must transmit. Addr is a
// fallback listen address for receivers the caller's address book may
// not cover (indirect probe targets).
type Packet struct {
	To   model.NodeID
	Addr string
	Msg  any // Ping, Ack, PingReq, or Leave
}

// Event records one member's state transition, in the order observed.
// Addr is the member's last known listen address (so an Alive
// resurrection can restore the address book entry).
type Event struct {
	ID    model.NodeID
	Addr  string
	State State
	Inc   uint64
}

// Config tunes the detector's timing. The defaults suit a LAN-ish
// deployment; tests shrink them for fast churn.
type Config struct {
	// ProbeInterval is the period between probe rounds (one member
	// probed per round, SWIM round-robin over a shuffled rotation).
	ProbeInterval time.Duration
	// PingTimeout is how long a direct ping waits before the indirect
	// phase (ping-req through IndirectProbes proxies) starts.
	PingTimeout time.Duration
	// ProbeTimeout is the total wait (direct + indirect) before the
	// target is declared Suspect.
	ProbeTimeout time.Duration
	// SuspectTimeout is how long a Suspect member has to refute the
	// rumor before it is declared Dead.
	SuspectTimeout time.Duration
	// IndirectProbes is k, the number of proxies asked to ping an
	// unresponsive target.
	IndirectProbes int
	// MaxPiggyback caps the updates and moves attached to one protocol
	// message.
	MaxPiggyback int
	// TombstoneTTL is how long a dead/left member's tombstone is kept
	// before it is forgotten entirely. It only needs to outlive the
	// death rumor's propagation and stale address-book replays; without
	// a TTL a long-running node accumulates one tombstone per departed
	// peer forever and ships them all in every book reply.
	TombstoneTTL time.Duration
}

// DefaultConfig returns the detector's default timing: ~0.9s to
// suspicion and ~2.5s more to death for an unresponsive peer, scaled by
// its position in the probe rotation.
func DefaultConfig() Config {
	return Config{
		ProbeInterval:  400 * time.Millisecond,
		PingTimeout:    250 * time.Millisecond,
		ProbeTimeout:   900 * time.Millisecond,
		SuspectTimeout: 2500 * time.Millisecond,
		IndirectProbes: 2,
		MaxPiggyback:   8,
		TombstoneTTL:   60 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = d.ProbeInterval
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = d.PingTimeout
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = d.ProbeTimeout
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = d.SuspectTimeout
	}
	if c.IndirectProbes <= 0 {
		c.IndirectProbes = d.IndirectProbes
	}
	if c.MaxPiggyback <= 0 {
		c.MaxPiggyback = d.MaxPiggyback
	}
	if c.TombstoneTTL <= 0 {
		// Scale with the (possibly test-shrunk) suspect timeout, but
		// never below a comfortable multiple of rumor-propagation time.
		c.TombstoneTTL = 24 * c.SuspectTimeout
	}
	return c
}

// Member is one peer's liveness record.
type Member struct {
	ID    model.NodeID
	Addr  string
	State State
	Inc   uint64

	// stateSince timestamps the last transition (drives the
	// suspect→dead timeout).
	stateSince time.Time
}

// probe is one outstanding direct-or-indirect probe cycle.
type probe struct {
	target   model.NodeID
	sentAt   time.Time
	indirect bool // ping-reqs already dispatched
}

// relay is one ping this node performs on another origin's behalf.
type relay struct {
	origin  model.NodeID
	origSeq uint64
	target  model.NodeID
	at      time.Time
}

// rumorKey names one fact in the piggyback queue: a member's liveness
// by node id, or a category's DCRT row. A fresher fact replaces the
// queued one under the same key.
type rumorKey struct{ kind, id int32 }

const (
	liveness = iota
	dcrtRow
)

// queued is one rumor awaiting piggyback dissemination: u for a
// liveness key, mv for a DCRT key.
type queued struct {
	u     Update
	mv    Move
	sends int
}

// Detector is one node's membership view and protocol driver.
type Detector struct {
	self model.NodeID
	addr string
	inc  uint64 // own incarnation; bumped to refute suspicion
	cfg  Config
	rng  *rand.Rand

	members map[model.NodeID]*Member
	// tombs remembers dead/left members' incarnations after eviction so
	// stale address books cannot resurrect them (satellite: book merges
	// carry tombstones).
	tombs map[model.NodeID]uint64
	// tombStates distinguishes a crash (Dead) from a graceful departure
	// (Left) when reporting evicted members; absent means Dead.
	tombStates map[model.NodeID]State
	// tombSince timestamps each tombstone so Tick can age it out after
	// TombstoneTTL, keeping the map (and Book frames) bounded under
	// sustained churn.
	tombSince map[model.NodeID]time.Time

	// rotation is the SWIM probe order: a shuffled pass over the
	// members, reshuffled when exhausted, so every member is probed once
	// per round-robin period.
	rotation []model.NodeID
	rotIdx   int

	lastProbe time.Time
	seq       uint64
	probes    map[uint64]*probe
	relays    map[uint64]*relay

	rumors map[rumorKey]*queued
	events []Event
}

// New builds a detector for self, which is always considered alive
// (refuting its own suspicion by incarnation bump).
func New(self model.NodeID, addr string, cfg Config, seed int64) *Detector {
	return &Detector{
		self:       self,
		addr:       addr,
		cfg:        cfg.withDefaults(),
		rng:        rand.New(rand.NewSource(seed + int64(self)*31337 + 7)),
		members:    make(map[model.NodeID]*Member),
		tombs:      make(map[model.NodeID]uint64),
		tombStates: make(map[model.NodeID]State),
		tombSince:  make(map[model.NodeID]time.Time),
		probes:     make(map[uint64]*probe),
		relays:     make(map[uint64]*relay),
		rumors:     make(map[rumorKey]*queued),
	}
}

// Config returns the detector's timing, defaults filled in.
func (d *Detector) Config() Config { return d.cfg }

// Incarnation returns this node's current incarnation number.
func (d *Detector) Incarnation() uint64 { return d.inc }

// Observe learns a peer's address (typically from an address-book
// merge). A peer already known keeps its state; a tombstoned peer is
// NOT resurrected — only Rejoin (a live hello) clears a tombstone.
func (d *Detector) Observe(id model.NodeID, addr string, now time.Time) {
	if id == d.self {
		return
	}
	if m, ok := d.members[id]; ok {
		if addr != "" {
			m.Addr = addr
		}
		return
	}
	if _, dead := d.tombs[id]; dead {
		return
	}
	d.members[id] = &Member{ID: id, Addr: addr, State: Alive, stateSince: now}
}

// Rejoin restores a peer as alive on firsthand evidence (a hello from a
// live TCP connection, or a ping from a node this view had declared
// dead). The incarnation jumps past the tombstone so the resurrection
// rumor beats any in-flight death rumor.
func (d *Detector) Rejoin(id model.NodeID, addr string, now time.Time) {
	if id == d.self {
		return
	}
	inc := uint64(0)
	if ti, ok := d.tombs[id]; ok {
		inc = ti + 1
		delete(d.tombs, id)
		delete(d.tombStates, id)
		delete(d.tombSince, id)
	}
	m, ok := d.members[id]
	switch {
	case !ok:
		m = &Member{ID: id, Addr: addr, State: Alive, Inc: inc, stateSince: now}
		d.members[id] = m
		if inc > 0 {
			// Came back from a tombstone: spread the resurrection.
			d.setState(m, Alive, inc, now)
		}
	case m.State == Dead || m.State == Left || m.State == Suspect:
		if m.Inc >= inc {
			inc = m.Inc + 1
		}
		if addr != "" {
			m.Addr = addr
		}
		d.setState(m, Alive, inc, now)
	default:
		if addr != "" {
			m.Addr = addr
		}
	}
}

// Member returns a copy of the record for id (self included) and
// whether it exists.
func (d *Detector) Member(id model.NodeID) (Member, bool) {
	if id == d.self {
		return Member{ID: d.self, Addr: d.addr, State: Alive, Inc: d.inc}, true
	}
	if m, ok := d.members[id]; ok {
		return *m, true
	}
	if inc, ok := d.tombs[id]; ok {
		st := Dead
		if s, hasState := d.tombStates[id]; hasState {
			st = s
		}
		return Member{ID: id, State: st, Inc: inc}, true
	}
	return Member{}, false
}

// IsLive reports whether id is usable for routing: self, or a known
// member in Alive or Suspect state (suspects get the benefit of the
// doubt until the timeout confirms them dead).
func (d *Detector) IsLive(id model.NodeID) bool {
	if id == d.self {
		return true
	}
	m, ok := d.members[id]
	return ok && (m.State == Alive || m.State == Suspect)
}

// Counts returns how many members (self included) are alive and how
// many are suspect.
func (d *Detector) Counts() (alive, suspect int) {
	alive = 1 // self
	for _, m := range d.members {
		switch m.State {
		case Alive:
			alive++
		case Suspect:
			suspect++
		}
	}
	return alive, suspect
}

// Snapshot returns all member records (self excluded), sorted by id.
func (d *Detector) Snapshot() []Member {
	out := make([]Member, 0, len(d.members))
	for _, m := range d.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tombstones returns a copy of the dead/left incarnation map — the
// payload address-book replies carry so a rejoining node does not
// resurrect confirmed-dead peers.
func (d *Detector) Tombstones() map[model.NodeID]uint64 {
	if len(d.tombs) == 0 {
		return nil
	}
	out := make(map[model.NodeID]uint64, len(d.tombs))
	for id, inc := range d.tombs {
		out[id] = inc
	}
	return out
}

// ApplyTombstone merges one tombstone from a peer's address book: the
// member is declared dead unless it has since advertised a newer
// incarnation. A tombstone about self is refuted immediately.
func (d *Detector) ApplyTombstone(id model.NodeID, inc uint64, now time.Time) {
	d.apply(Update{ID: id, State: Dead, Inc: inc}, now)
}

// Events drains the state transitions recorded since the last call.
func (d *Detector) Events() []Event {
	ev := d.events
	d.events = nil
	return ev
}

// Tick advances the timers: starts the next probe when the interval
// elapsed, escalates overdue probes (indirect phase, then suspicion),
// and confirms overdue suspects dead. It returns the packets to send.
func (d *Detector) Tick(now time.Time) []Packet {
	var out []Packet

	// Escalate outstanding probes.
	for seq, p := range d.probes {
		m, ok := d.members[p.target]
		if !ok || m.State == Dead || m.State == Left {
			delete(d.probes, seq)
			continue
		}
		age := now.Sub(p.sentAt)
		switch {
		case age >= d.cfg.ProbeTimeout:
			delete(d.probes, seq)
			if m.State == Alive {
				d.setState(m, Suspect, m.Inc, now)
			}
		case age >= d.cfg.PingTimeout && !p.indirect:
			p.indirect = true
			for _, proxy := range d.pickProxies(p.target) {
				pr := PingReq{Seq: seq, Target: p.target, Addr: m.Addr}
				pr.Updates, pr.Moves = d.piggyback()
				out = append(out, Packet{To: proxy, Msg: pr})
			}
		}
	}

	// Forget stale relays (the ack never came; the origin's own timeout
	// handles the rest).
	for seq, r := range d.relays {
		if now.Sub(r.at) >= d.cfg.ProbeTimeout {
			delete(d.relays, seq)
		}
	}

	// Confirm overdue suspects dead.
	for _, m := range d.members {
		if m.State == Suspect && now.Sub(m.stateSince) >= d.cfg.SuspectTimeout {
			d.setState(m, Dead, m.Inc, now)
		}
	}

	// Age out old tombstones. A tombstone only has to outlive the death
	// rumor's propagation and the replay window of stale address books;
	// past the TTL the departed peer is forgotten entirely, so the map
	// (and every Book frame carrying it) stays bounded under churn.
	for id, at := range d.tombSince {
		if now.Sub(at) >= d.cfg.TombstoneTTL {
			delete(d.tombs, id)
			delete(d.tombStates, id)
			delete(d.tombSince, id)
		}
	}

	// Start the next probe round.
	if now.Sub(d.lastProbe) >= d.cfg.ProbeInterval {
		if target, ok := d.nextTarget(); ok {
			d.lastProbe = now
			d.seq++
			d.probes[d.seq] = &probe{target: target, sentAt: now}
			out = append(out, Packet{To: target, Msg: d.ping(d.seq)})
		}
	}
	return out
}

// OnPing answers a direct probe (or a proxy's relayed probe) and merges
// its piggybacked updates. A ping from a tombstoned member is firsthand
// proof of life: the sender is resurrected.
func (d *Detector) OnPing(from model.NodeID, p Ping, now time.Time) []Packet {
	if _, dead := d.tombs[from]; dead && p.Addr != "" {
		d.Rejoin(from, p.Addr, now)
	} else {
		d.Observe(from, p.Addr, now)
		d.markContact(from, now)
	}
	d.applyAll(p.Updates, now)
	return []Packet{{To: from, Msg: d.ack(p.Seq, d.self)}}
}

// OnPingReq performs an indirect probe on the origin's behalf.
func (d *Detector) OnPingReq(from model.NodeID, pr PingReq, now time.Time) []Packet {
	d.Observe(from, "", now)
	d.markContact(from, now)
	d.applyAll(pr.Updates, now)
	d.seq++
	d.relays[d.seq] = &relay{origin: from, origSeq: pr.Seq, target: pr.Target, at: now}
	m, ok := d.members[pr.Target]
	addr := pr.Addr
	if ok && m.Addr != "" {
		addr = m.Addr
	}
	return []Packet{{To: pr.Target, Addr: addr, Msg: d.ping(d.seq)}}
}

// OnAck settles the matching probe (clearing suspicion on firsthand
// evidence) or, at a proxy, relays the vouched ack back to the origin.
func (d *Detector) OnAck(from model.NodeID, a Ack, now time.Time) []Packet {
	d.applyAll(a.Updates, now)
	if p, ok := d.probes[a.Seq]; ok && p.target == a.Target {
		delete(d.probes, a.Seq)
		d.markContact(a.Target, now)
		return nil
	}
	if r, ok := d.relays[a.Seq]; ok && r.target == a.Target {
		delete(d.relays, a.Seq)
		d.markContact(a.Target, now)
		return []Packet{{To: r.origin, Msg: d.ack(r.origSeq, a.Target)}}
	}
	return nil
}

// OnLeave records a graceful departure: straight to Left, no suspicion.
func (d *Detector) OnLeave(l Leave, now time.Time) {
	d.apply(Update{ID: l.ID, State: Left, Inc: l.Inc}, now)
}

// MakeLeave builds this node's own departure announcement; the caller
// broadcasts it to the live membership before shutting down.
func (d *Detector) MakeLeave() Leave { return Leave{ID: d.self, Inc: d.inc} }

// markContact is firsthand liveness evidence: a suspect that talked to
// us directly is alive again (no incarnation bump needed locally; the
// member refutes the rumor network-wide itself when it hears it).
func (d *Detector) markContact(id model.NodeID, now time.Time) {
	if m, ok := d.members[id]; ok && m.State == Suspect {
		m.State = Alive
		m.stateSince = now
		d.events = append(d.events, Event{ID: m.ID, Addr: m.Addr, State: Alive, Inc: m.Inc})
	}
}

// applyAll merges a batch of piggybacked rumors.
func (d *Detector) applyAll(us []Update, now time.Time) {
	for _, u := range us {
		d.apply(u, now)
	}
}

// apply merges one rumor under SWIM's ordering rules: higher
// incarnations win; at equal incarnation Suspect overrides Alive and
// Dead/Left override everything. Rumors about self that claim Suspect
// or Dead are refuted by bumping our incarnation and spreading Alive.
func (d *Detector) apply(u Update, now time.Time) {
	if u.ID == d.self {
		if (u.State == Suspect || u.State == Dead) && u.Inc >= d.inc {
			d.inc = u.Inc + 1
			d.queueUpdate(Update{ID: d.self, Addr: d.addr, State: Alive, Inc: d.inc})
		}
		return
	}
	m, known := d.members[u.ID]
	if !known {
		if ti, dead := d.tombs[u.ID]; dead {
			if u.State == Alive && u.Inc > ti {
				// Resurrection rumor newer than the tombstone.
				delete(d.tombs, u.ID)
				delete(d.tombStates, u.ID)
				delete(d.tombSince, u.ID)
				m = &Member{ID: u.ID, Addr: u.Addr, State: Alive, Inc: u.Inc, stateSince: now}
				d.members[u.ID] = m
				d.events = append(d.events, Event{ID: u.ID, Addr: u.Addr, State: Alive, Inc: u.Inc})
				d.queueUpdate(u)
			}
			return
		}
		if u.State == Dead || u.State == Left {
			// Never met it; remember only the tombstone.
			d.tombs[u.ID] = u.Inc
			d.tombStates[u.ID] = u.State
			d.tombSince[u.ID] = now
			d.queueUpdate(u)
			return
		}
		m = &Member{ID: u.ID, Addr: u.Addr, State: u.State, Inc: u.Inc, stateSince: now}
		d.members[u.ID] = m
		d.queueUpdate(u)
		return
	}
	if u.Addr != "" {
		m.Addr = u.Addr
	}
	if !supersedes(u, m) {
		return
	}
	d.setState(m, u.State, u.Inc, now)
}

// supersedes decides whether rumor u overrides the current record m.
func supersedes(u Update, m *Member) bool {
	if u.Inc > m.Inc {
		return true
	}
	if u.Inc < m.Inc {
		return false
	}
	// Same incarnation: strictly "worse" states win.
	rank := func(s State) int {
		switch s {
		case Alive:
			return 0
		case Suspect:
			return 1
		default: // Dead, Left
			return 2
		}
	}
	return rank(u.State) > rank(m.State)
}

// setState applies a transition, records the event, and queues the
// rumor for dissemination. Dead/Left members move to the tombstone map.
func (d *Detector) setState(m *Member, s State, inc uint64, now time.Time) {
	m.State = s
	m.Inc = inc
	m.stateSince = now
	d.events = append(d.events, Event{ID: m.ID, Addr: m.Addr, State: s, Inc: inc})
	d.queueUpdate(Update{ID: m.ID, Addr: m.Addr, State: s, Inc: inc})
	if s == Dead || s == Left {
		d.tombs[m.ID] = inc
		d.tombStates[m.ID] = s
		d.tombSince[m.ID] = now
		delete(d.members, m.ID)
	}
}

// ping builds a probe from this node with the next piggyback.
func (d *Detector) ping(seq uint64) Ping {
	p := Ping{Seq: seq, Addr: d.addr}
	p.Updates, p.Moves = d.piggyback()
	return p
}

// ack builds an ack vouching for target with the next piggyback.
func (d *Detector) ack(seq uint64, target model.NodeID) Ack {
	a := Ack{Seq: seq, Target: target}
	a.Updates, a.Moves = d.piggyback()
	return a
}

// queueUpdate stages a rumor for piggybacking; a fresh rumor about a
// member replaces the queue's older one and resets its send budget.
func (d *Detector) queueUpdate(u Update) {
	d.rumors[rumorKey{liveness, int32(u.ID)}] = &queued{u: u}
}

// QueueMove stages a DCRT row for piggybacking, replacing any queued
// row for the same category and resetting its send budget. The caller
// queues only rows that changed its own table, so a row is forwarded
// once per node that learns it and the epidemic stays bounded.
func (d *Detector) QueueMove(mv Move) {
	d.rumors[rumorKey{dcrtRow, int32(mv.Category)}] = &queued{mv: mv}
}

// retransmitBudget is how many times each rumor is piggybacked before
// it is dropped: the SWIM λ·log(n) dissemination bound.
func (d *Detector) retransmitBudget() int {
	n := len(d.members) + 2
	return 3 * (int(math.Log2(float64(n))) + 1)
}

// piggyback selects up to MaxPiggyback queued rumors of either kind,
// preferring the least-disseminated, and charges their budgets.
func (d *Detector) piggyback() ([]Update, []Move) {
	if len(d.rumors) == 0 {
		return nil, nil
	}
	keys := make([]rumorKey, 0, len(d.rumors))
	for k := range d.rumors {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b rumorKey) int {
		return cmp.Or(cmp.Compare(d.rumors[a].sends, d.rumors[b].sends),
			cmp.Compare(a.kind, b.kind), cmp.Compare(a.id, b.id))
	})
	budget := d.retransmitBudget()
	var us []Update
	var mvs []Move
	for _, k := range keys[:min(len(keys), d.cfg.MaxPiggyback)] {
		q := d.rumors[k]
		if k.kind == dcrtRow {
			mvs = append(mvs, q.mv)
		} else {
			us = append(us, q.u)
		}
		q.sends++
		if q.sends >= budget {
			delete(d.rumors, k)
		}
	}
	return us, mvs
}

// nextTarget picks the next probe target from the shuffled rotation,
// skipping members that died since the rotation was built.
func (d *Detector) nextTarget() (model.NodeID, bool) {
	for tries := 0; tries < 2; tries++ {
		for d.rotIdx < len(d.rotation) {
			id := d.rotation[d.rotIdx]
			d.rotIdx++
			if m, ok := d.members[id]; ok && (m.State == Alive || m.State == Suspect) {
				return id, true
			}
		}
		// Rotation exhausted: reshuffle over the current membership.
		d.rotation = d.rotation[:0]
		d.rotIdx = 0
		for id, m := range d.members {
			if m.State == Alive || m.State == Suspect {
				d.rotation = append(d.rotation, id)
			}
		}
		sort.Slice(d.rotation, func(i, j int) bool { return d.rotation[i] < d.rotation[j] })
		d.rng.Shuffle(len(d.rotation), func(i, j int) {
			d.rotation[i], d.rotation[j] = d.rotation[j], d.rotation[i]
		})
	}
	return 0, false
}

// pickProxies samples up to IndirectProbes live members other than the
// target (and self) to carry indirect probes.
func (d *Detector) pickProxies(target model.NodeID) []model.NodeID {
	var pool []model.NodeID
	for id, m := range d.members {
		if id != target && m.State == Alive {
			pool = append(pool, id)
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	d.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > d.cfg.IndirectProbes {
		pool = pool[:d.cfg.IndirectProbes]
	}
	return pool
}
