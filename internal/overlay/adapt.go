package overlay

import (
	"fmt"
	"math"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/core"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// AdaptationReport summarizes one §6.1 adaptation round.
type AdaptationReport struct {
	Epoch uint64
	// Leaders maps clusters to their elected leader.
	Leaders map[model.ClusterID]model.NodeID
	// MeasuredFairness is the fairness index the chosen leader computed
	// from live hit counters in phase 3.
	MeasuredFairness float64
	// Rebalanced is true when phase 4 ran.
	Rebalanced bool
	// Moves lists the category reassignments of phase 4.
	Moves []core.Move
	// FairnessAfter is the chosen leader's fairness estimate after the
	// moves (equal to MeasuredFairness when no rebalancing happened).
	FairnessAfter float64
	// TransferBytes and TransferCount account the bulk data movement of
	// the lazy rebalancing protocol.
	TransferBytes int64
	// TransferCount is the number of paired source→destination transfers.
	TransferCount int
	// EngagedNodes counts the distinct nodes that took part in a
	// transfer (either end).
	EngagedNodes int

	engaged map[model.NodeID]bool
}

// engage records a node's participation in a transfer.
func (r *AdaptationReport) engage(n model.NodeID) {
	if r.engaged == nil {
		r.engaged = make(map[model.NodeID]bool)
	}
	if !r.engaged[n] {
		r.engaged[n] = true
		r.EngagedNodes++
	}
}

// RunAdaptation executes one complete adaptation epoch: leader election
// (§6.1.1), the four phases of §6.1.2, and metadata gossip. The driver
// plays the role of the paper's period timers ("leaders are elected
// periodically, e.g., every day"); everything else happens through
// messages between peers.
func (s *System) RunAdaptation(gossipRounds int) (*AdaptationReport, error) {
	s.epoch++
	rep := &AdaptationReport{Epoch: s.epoch, Leaders: make(map[model.ClusterID]model.NodeID)}
	s.adaptReport = rep

	// Leader election: capability gossip for ~diameter rounds, then every
	// node picks the most capable node it heard of.
	rounds := s.electionRounds()
	for r := 0; r < rounds; r++ {
		for _, p := range s.peers {
			if !s.net.Alive(p.addr) {
				continue
			}
			p.gossipCapabilities()
		}
		if _, err := s.net.Run(0); err != nil {
			return nil, fmt.Errorf("overlay: election round %d: %w", r, err)
		}
	}
	for _, p := range s.peers {
		if s.net.Alive(p.addr) {
			p.electLeaders()
		}
	}
	for _, p := range s.peers {
		for _, cl := range p.clusters {
			if l, ok := p.leaders[cl]; ok {
				if _, seen := rep.Leaders[cl]; !seen {
					rep.Leaders[cl] = l
				}
			}
		}
	}

	// Phase 1: every self-believed leader floods a hit-counter request,
	// building the aggregation tree; phase 2 (leader load exchange) fires
	// from the message handlers as roots complete.
	for _, p := range s.peers {
		if !s.net.Alive(p.addr) {
			continue
		}
		for _, cl := range p.clusters {
			if p.leaders[cl] == p.id {
				p.startAggregation(cl)
			}
		}
	}
	if _, err := s.net.Run(0); err != nil {
		return nil, fmt.Errorf("overlay: monitoring phase: %w", err)
	}

	// Phase 3 + 4 run at the chosen leader: the leader of the hottest
	// cluster among the loads it collected (protocol.Survey.Hottest).
	// Partial load exchange can leave every leader believing some other
	// cluster is hotter; in that case the leader with the hottest *own*
	// cluster proceeds (the paper only requires "a chosen leader, e.g., the
	// leader of the cluster with the highest normalized popularity").
	var chosen *Peer
	fallbackX := math.Inf(-1)
	for _, p := range s.peers {
		if !s.net.Alive(p.addr) || len(p.leaderLoads) == 0 {
			continue
		}
		sv := protocol.Measure(p.leaderLoads, s.epoch)
		if len(sv.Heard) > 0 && p.inCluster(sv.Hottest) && p.leaders[sv.Hottest] == p.id {
			chosen = p
			break
		}
		if x := p.ownLedNormPop(); x > fallbackX {
			chosen, fallbackX = p, x
		}
	}
	if chosen != nil {
		if err := chosen.evaluateAndRebalance(); err != nil {
			return nil, fmt.Errorf("overlay: evaluation phase: %w", err)
		}
	}
	if _, err := s.net.Run(0); err != nil {
		return nil, fmt.Errorf("overlay: rebalancing phase: %w", err)
	}

	// Step 5 of the lazy rebalancing protocol: epidemic propagation of
	// metadata updates.
	if gossipRounds <= 0 {
		gossipRounds = 4
	}
	for g := 0; g < gossipRounds; g++ {
		for _, p := range s.peers {
			if s.net.Alive(p.addr) {
				p.gossipMetadata()
			}
		}
		if _, err := s.net.Run(0); err != nil {
			return nil, fmt.Errorf("overlay: gossip round %d: %w", g, err)
		}
	}

	s.adaptReport = nil
	return rep, nil
}

// electionRounds sizes capability gossip to cover the largest cluster's
// gossip diameter with slack.
func (s *System) electionRounds() int {
	max := 2
	counts := make(map[model.ClusterID]int)
	for _, p := range s.peers {
		for _, cl := range p.clusters {
			counts[cl]++
		}
	}
	for _, n := range counts {
		if r := int(math.Ceil(math.Log2(float64(n+1)))) + 3; r > max {
			max = r
		}
	}
	return max
}

// capViewSize bounds each capability view to the few strongest candidates.
// The election only needs the maximum to converge; gossiping full views
// would make message sizes (and memory) quadratic in the cluster size.
// Keeping a handful of runners-up gives the failure path (§6.1.1: "the
// next more capable node") somewhere to go.
const capViewSize = 4

// gossipCapabilities pushes this node's capability view to its cluster
// neighbors (§6.1.1: "nodes inform their cluster neighbors of their
// computing, storage, and bandwidth capabilities, while also forwarding
// relevant information received by other nodes").
func (p *Peer) gossipCapabilities() {
	for _, cl := range p.clusters {
		view := p.knownCaps[cl]
		if view == nil {
			view = make(map[model.NodeID]float64)
			p.knownCaps[cl] = view
		}
		view[p.id] = p.units
		trimCapView(view, capViewSize)
		known := make(map[model.NodeID]float64, len(view))
		for n, u := range view {
			known[n] = u
		}
		for _, nb := range p.neighbors(cl) {
			p.sys.net.Send(p.addr, int(nb), CapabilityMsg{Cluster: cl, Known: known})
		}
	}
}

// handleCapability merges a capability rumor, keeping only the strongest
// candidates.
func (p *Peer) handleCapability(m CapabilityMsg) {
	view := p.knownCaps[m.Cluster]
	if view == nil {
		view = make(map[model.NodeID]float64)
		p.knownCaps[m.Cluster] = view
	}
	for n, u := range m.Known {
		view[n] = u
	}
	trimCapView(view, capViewSize)
}

// trimCapView drops all but the k most capable candidates (ties keep the
// lowest ids, matching the election's tie-break).
func trimCapView(view map[model.NodeID]float64, k int) {
	for len(view) > k {
		worst := model.NodeID(-1)
		for n, u := range view {
			if worst == -1 {
				worst = n
				continue
			}
			if protocol.MoreCapable(worst, view[worst], n, u) {
				worst = n
			}
		}
		delete(view, worst)
	}
}

// electLeaders picks, per cluster, the most powerful known node (ties to
// the lowest id, so all correctly-informed nodes agree).
func (p *Peer) electLeaders() {
	for _, cl := range p.clusters {
		view := p.knownCaps[cl]
		best := p.id
		bestU := p.units
		for n, u := range view {
			if !p.sys.net.Alive(int(n)) {
				continue
			}
			if protocol.MoreCapable(n, u, best, bestU) {
				best, bestU = n, u
			}
		}
		p.leaders[cl] = best
	}
}

// startAggregation begins phase 1 at the cluster leader: flood a hit
// request through the cluster, forming a spanning tree on the fly.
func (p *Peer) startAggregation(cl model.ClusterID) {
	st := &aggState{
		load:    protocol.ClusterLoad{Epoch: p.sys.epoch, Hits: p.ownHits(cl), Units: p.ownUnits(cl)},
		isRoot:  true,
		waiting: len(p.neighbors(cl)),
	}
	p.agg[cl] = st
	for _, nb := range p.neighbors(cl) {
		p.sys.net.Send(p.addr, int(nb), HitRequestMsg{Epoch: p.sys.epoch, Cluster: cl})
	}
	if st.waiting == 0 {
		p.finishAggregation(cl, st)
	}
}

// ownHits snapshots this node's hit counters for the categories served by
// the aggregating cluster. A node in several clusters participates in one
// aggregation tree per cluster; without the filter its foreign-category
// hits would pollute every cluster's measured load.
func (p *Peer) ownHits(cl model.ClusterID) map[catalog.CategoryID]int64 {
	out := make(map[catalog.CategoryID]int64, len(p.hits))
	for c, n := range p.hits {
		if p.routeCategory(c).Cluster == cl {
			out[c] = n
		}
	}
	return out
}

// ownUnits is this node's per-category unit mass (§4.3.3) restricted to
// the aggregating cluster's categories.
func (p *Peer) ownUnits(cl model.ClusterID) map[catalog.CategoryID]float64 {
	return protocol.UnitMass(p.sys.inst.Catalog, p.units, p.byCat, &p.dcrt, cl)
}

// handleHitRequest joins the aggregation tree (phase 1): the first request
// seen this epoch makes the sender our parent; later ones get a Dup reply
// so the other parent stops waiting.
func (p *Peer) handleHitRequest(from int, m HitRequestMsg) {
	if st, ok := p.agg[m.Cluster]; ok && st.load.Epoch == m.Epoch {
		p.sys.net.Send(p.addr, from, HitReplyMsg{Epoch: m.Epoch, Cluster: m.Cluster, Dup: true})
		return
	}
	nbs := p.neighbors(m.Cluster)
	st := &aggState{
		load:   protocol.ClusterLoad{Epoch: m.Epoch, Hits: p.ownHits(m.Cluster), Units: p.ownUnits(m.Cluster)},
		parent: model.NodeID(from),
	}
	p.agg[m.Cluster] = st
	for _, nb := range nbs {
		if int(nb) == from {
			continue
		}
		st.waiting++
		p.sys.net.Send(p.addr, int(nb), HitRequestMsg{Epoch: m.Epoch, Cluster: m.Cluster})
	}
	if st.waiting == 0 {
		p.finishAggregation(m.Cluster, st)
	}
}

// handleHitReply merges a child's subtree aggregate; when the last child
// reports, the aggregate flows up (or completes phase 1 at the root).
func (p *Peer) handleHitReply(_ int, m HitReplyMsg) {
	st, ok := p.agg[m.Cluster]
	if !ok || st.load.Epoch != m.Epoch || st.reported {
		return
	}
	if !m.Dup {
		st.load.Add(m.Hits, m.Units)
	}
	st.waiting--
	if st.waiting <= 0 {
		p.finishAggregation(m.Cluster, st)
	}
}

// finishAggregation reports the subtree aggregate to the parent, or — at
// the root — stores the cluster-wide result and starts phase 2.
func (p *Peer) finishAggregation(cl model.ClusterID, st *aggState) {
	if st.reported {
		return
	}
	st.reported = true
	if !st.isRoot {
		p.sys.net.Send(p.addr, int(st.parent), HitReplyMsg{
			Epoch:   st.load.Epoch,
			Cluster: cl,
			Hits:    st.load.Hits,
			Units:   st.load.Units,
		})
		return
	}
	// Root: record our own cluster's load and share it with the other
	// leaders (phase 2). The leader contacts one random known node per
	// cluster; that node forwards to its believed leader.
	if p.leaderLoads == nil {
		p.leaderLoads = make(map[model.ClusterID]*protocol.ClusterLoad)
	}
	p.leaderLoads[cl] = &st.load
	for c := 0; c < p.sys.inst.NumClusters; c++ {
		target := model.ClusterID(c)
		if target == cl {
			continue
		}
		if n, ok := p.sys.randomLiveNode(p, target); ok {
			p.sys.net.Send(p.addr, int(n), LeaderLoadMsg{
				Epoch:   st.load.Epoch,
				Cluster: cl,
				Target:  target,
				Leader:  p.id,
				Hits:    st.load.Hits,
				Units:   st.load.Units,
			})
		}
	}
}

// handleLeaderLoad relays a phase-2 load report to this node's believed
// leader of the target cluster, or records it if this node is that leader.
func (p *Peer) handleLeaderLoad(m LeaderLoadMsg) {
	leader, ok := p.leaders[m.Target]
	if !ok {
		// Not a member of (or uninformed about) the target cluster —
		// happens when a stale NRT entry routed the report here. If we
		// are a leader of anything, keep the data; otherwise drop it.
		leader = p.id
		for _, cl := range p.clusters {
			if p.leaders[cl] == p.id {
				ok = true
				break
			}
		}
		if !ok {
			return
		}
	}
	if leader == p.id {
		if p.leaderLoads == nil {
			p.leaderLoads = make(map[model.ClusterID]*protocol.ClusterLoad)
		}
		// Newer epochs replace stale loads; duplicates within an epoch
		// keep the first report.
		if have, ok := p.leaderLoads[m.Cluster]; !ok || m.Epoch > have.Epoch {
			p.leaderLoads[m.Cluster] = &protocol.ClusterLoad{Epoch: m.Epoch, Hits: m.Hits, Units: m.Units}
		}
		return
	}
	if m.Relays >= 3 {
		return // leader views disagree; drop rather than ping-pong
	}
	m.Relays++
	p.sys.net.Send(p.addr, int(leader), m)
}

// ownLedNormPop returns the highest measured normalized popularity among
// the clusters this peer leads and has collected loads for, or -Inf.
func (p *Peer) ownLedNormPop() float64 {
	best := math.Inf(-1)
	for _, cl := range p.clusters {
		if p.leaders[cl] != p.id {
			continue
		}
		if load, ok := p.leaderLoads[cl]; ok && load.Epoch == p.sys.epoch {
			best = math.Max(best, load.NormPop())
		}
	}
	return best
}

// evaluateAndRebalance is phases 3 and 4 at the chosen leader: record
// protocol.Plan's decision over the collected loads and drive the lazy
// rebalancing protocol for each move.
func (p *Peer) evaluateAndRebalance() error {
	d, err := protocol.Plan(p.leaderLoads, p.sys.epoch, p.sys.inst.NumClusters, len(p.sys.inst.Catalog.Cats),
		protocol.DefaultThresholds)
	if err != nil {
		return err
	}
	rep := p.sys.adaptReport
	rep.MeasuredFairness = d.Fairness
	rep.FairnessAfter = d.FairnessAfter
	rep.Rebalanced = len(d.Moves) > 0
	rep.Moves = d.Moves
	for _, mv := range d.Moves {
		p.announceMove(mv.Category, mv.From, mv.To)
	}
	return nil
}

// announceMove drives steps 1–2 of the lazy rebalancing protocol for one
// reassigned category: bump the move counter, notify both clusters'
// nodes (who then pair up for the bulk transfers).
func (p *Peer) announceMove(cat catalog.CategoryID, from, to model.ClusterID) {
	old := p.routeCategory(cat)
	entry := DCRTEntry{Cluster: to, MoveCounter: old.MoveCounter + 1}
	p.dcrt.Set(cat, entry)
	p.markMetaDirty(cat, entry)

	// System truth bookkeeping (routing still flows through DCRTs).
	p.sys.assign[cat] = to
	p.sys.moveCounters[cat] = entry.MoveCounter

	update := MetadataUpdateMsg{Entries: map[catalog.CategoryID]DCRTEntry{cat: entry}}
	for _, target := range []model.ClusterID{from, to} {
		for _, n := range p.neighbors(target) {
			p.sys.net.Send(p.addr, int(n), update)
		}
	}
}

// markMetaDirty queues a DCRT entry for epidemic propagation.
func (p *Peer) markMetaDirty(cat catalog.CategoryID, e DCRTEntry) {
	if p.recentMeta == nil {
		p.recentMeta = make(map[catalog.CategoryID]DCRTEntry)
	}
	p.recentMeta[cat] = e
}

// gossipMetadata pushes recently-changed DCRT entries to a few random
// neighbors (lazy rebalancing step 5). Targets are drawn at random each
// round — a fixed target set would confine the epidemic to one subgraph.
func (p *Peer) gossipMetadata() {
	if len(p.recentMeta) == 0 {
		return
	}
	entries := make(map[catalog.CategoryID]DCRTEntry, len(p.recentMeta))
	for c, e := range p.recentMeta {
		entries[c] = e
	}
	var pool []model.NodeID
	for _, cl := range p.clusters {
		pool = append(pool, p.neighbors(cl)...)
	}
	if len(pool) == 0 {
		return
	}
	for i := 0; i < 3; i++ {
		nb := pool[p.sys.rng.Intn(len(pool))]
		p.sys.net.Send(p.addr, int(nb), MetadataUpdateMsg{Entries: entries})
	}
}

// handleMetadataUpdate merges DCRT entries, keeping the highest move
// counter per category (the §6.1.2 conflict resolution rule), and reacts
// to moves that affect this node: source-cluster members pair up and
// transfer their document groups; contributors follow their category.
func (p *Peer) handleMetadataUpdate(m MetadataUpdateMsg) {
	for _, cat := range m.Categories() {
		e := m.Entries[cat]
		if !protocol.MergeEntry(&p.dcrt, cat, e).Changed {
			continue
		}
		p.markMetaDirty(cat, e)
		p.reactToMove(cat, e)
	}
}

// reactToMove handles the storage side of a category move at this node.
func (p *Peer) reactToMove(cat catalog.CategoryID, e DCRTEntry) {
	// Documents of the moved category this node stores.
	mine := append([]catalog.DocID(nil), p.storedIn(cat)...)
	if len(mine) == 0 {
		return
	}
	if p.inCluster(e.Cluster) {
		return // already in the destination; nothing to ship
	}
	contributes := false
	for _, di := range p.sys.inst.Nodes[p.id].Contributed {
		if p.sys.inst.Catalog.Doc(di).Categories[0] == cat {
			contributes = true
			break
		}
	}
	if contributes {
		// Contributors follow their category into the destination
		// cluster (§3.1: nodes belong to the clusters of the categories
		// they contribute). Announce membership via a publish.
		p.joinCluster(e.Cluster)
		if len(mine) > 0 {
			p.startPublish(mine[0], cat, false)
		}
		return
	}
	// Replica holder in the source cluster: pair with a destination node,
	// send the manifest now and the bulk transfer at the first opportune
	// time (step 2: "transfers ... can be scheduled for the first
	// opportune time").
	dest, ok := p.sys.randomLiveNode(p, e.Cluster)
	if !ok {
		return
	}
	var bytes int64
	for _, di := range mine {
		bytes += p.sys.inst.Catalog.Doc(di).Size
	}
	docs := append([]catalog.DocID(nil), mine...)
	p.sys.net.Send(p.addr, int(dest), ManifestMsg{Category: cat, Docs: docs, Source: p.id})
	delay := time.Duration(p.sys.rng.Intn(1000)) * time.Millisecond
	p.sys.net.After(delay, func() {
		if !p.sys.net.Alive(p.addr) {
			return
		}
		p.sys.net.Send(p.addr, int(dest), TransferMsg{Category: cat, Docs: docs, Bytes: bytes})
		if rep := p.sys.adaptReport; rep != nil {
			rep.TransferBytes += bytes
			rep.TransferCount++
			rep.engage(p.id)
			rep.engage(dest)
		}
		// The group now lives in the destination cluster; free our copy.
		for _, di := range docs {
			p.drop(di)
		}
	})
}

// handleManifest registers on-demand fetchable documents at a destination
// node (step 4 preparation).
func (p *Peer) handleManifest(m ManifestMsg) {
	for _, di := range m.Docs {
		if !p.Stores(di) {
			p.pendingFetch[di] = m.Source
		}
	}
	entry := p.routeCategory(m.Category)
	p.joinCluster(entry.Cluster)
}

// handleTransfer stores a transferred document group at the destination.
func (p *Peer) handleTransfer(m TransferMsg) {
	for _, di := range m.Docs {
		delete(p.pendingFetch, di)
		p.store(di)
	}
	p.joinCluster(p.routeCategory(m.Category).Cluster)
}

// handleFetch serves an explicit document request from a destination node
// that needs documents before its scheduled transfer arrived (step 4).
func (p *Peer) handleFetch(from int, m FetchMsg) {
	var docs []catalog.DocID
	var bytes int64
	for _, di := range m.Docs {
		if p.Stores(di) {
			docs = append(docs, di)
			bytes += p.sys.inst.Catalog.Doc(di).Size
		}
	}
	p.sys.net.Send(p.addr, from, FetchReplyMsg{
		Category: m.Category,
		Docs:     docs,
		Bytes:    bytes,
		ForQuery: m.ForQuery,
		Origin:   m.Origin,
		Want:     m.Want,
		Hops:     m.Hops,
	})
}

// handleFetchReply stores fetched documents and, if the fetch was on
// behalf of a forwarded query, answers the origin with the piggybacked
// results (step 4: "it will also piggyback onto the reply the update in
// the metadata information").
func (p *Peer) handleFetchReply(m FetchReplyMsg) {
	for _, di := range m.Docs {
		p.store(di)
	}
	if m.ForQuery != 0 && len(m.Docs) > 0 {
		p.sys.net.Send(p.addr, int(m.Origin), ResultMsg{
			ID:   m.ForQuery,
			Docs: m.Docs,
			Hops: m.Hops,
			From: p.id,
		})
	}
}
