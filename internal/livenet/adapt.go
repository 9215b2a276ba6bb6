package livenet

// Online adaptation: the §6.1 dynamics ported from the simulated overlay
// to the live network. Time is divided into wall-clock epochs (all
// processes of a deployment share the machine clock, or clocks close
// enough for multi-second epochs). Within each epoch:
//
//	step 0 (epoch start)  every node reports its per-category hit counts
//	                      and unit mass to the leader of each cluster it
//	                      belongs to, then resets its counters — each
//	                      report is one epoch's measurement;
//	step 1 (half epoch)   each leader folds the reports into its
//	                      cluster's load and shares the aggregate with
//	                      the other clusters' leaders;
//	step 2 (3/4 epoch)    the chosen leader — the leader of the cluster
//	                      with the highest measured normalized
//	                      popularity — computes Jain's fairness index
//	                      over the heard loads and, below the low
//	                      threshold, runs MaxFair_Reassign on the
//	                      measured state and announces the category
//	                      moves.
//
// Leader election is deterministic rather than gossiped: node
// capabilities (Units) are part of the shared deterministic model, so
// the leader of a cluster is simply its most capable LIVE member (ties
// to the lowest id), computed locally by everyone against the failure
// detector's view. Nodes whose liveness views briefly disagree send
// reports to different believed leaders; mis-routed reports are dropped
// and the next epoch converges.
//
// Category moves carry a move counter (§6.1.2 conflict resolution: the
// higher counter wins) and propagate both by direct announcement to the
// affected clusters and by epidemic metadata gossip. Members of the
// receiving cluster re-run the intra-cluster placement policy for the
// moved category (replica.PlaceCategory) and store their deterministic
// share, so the category is servable at its new home without a
// coordinator.

import (
	"maps"
	"slices"
	"sort"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
	"p2pshare/internal/wire"
)

// AdaptConfig tunes the live adaptation loop. Zero fields take the
// defaults (the simulated overlay's thresholds, a 3s epoch).
type AdaptConfig struct {
	// Interval is the epoch length (the paper's "periodically, e.g.,
	// every day", compressed for testability).
	Interval time.Duration
	// LowThreshold triggers rebalancing when the measured fairness
	// index falls below it.
	LowThreshold float64
	// TargetFairness is the reassignment's stopping criterion.
	TargetFairness float64
	// MaxMoves bounds category moves per epoch.
	MaxMoves int
}

func (c AdaptConfig) withDefaults() AdaptConfig {
	if c.Interval <= 0 {
		c.Interval = 3 * time.Second
	}
	if c.LowThreshold <= 0 {
		c.LowThreshold = 0.83
	}
	if c.TargetFairness <= 0 {
		c.TargetFairness = 0.92
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = 16
	}
	return c
}

// adaptState is the adaptation layer's state, used under routeMu.Lock.
type adaptState struct {
	cfg AdaptConfig
	// mine lists the clusters this node belongs to (Node.members).
	mine []model.ClusterID
	// epoch/step track progress through the current wall-clock epoch.
	epoch uint64
	step  int
	// agg accumulates member reports at a leader; loads holds the
	// finalized per-cluster aggregates this leader has heard.
	agg   map[model.ClusterID]*protocol.ClusterLoad
	loads map[model.ClusterID]*protocol.ClusterLoad
	// serves accumulates per-member content-serve loads at a leader
	// (LeaderLoad.Served), feeding the demand-driven replication hints.
	serves map[model.ClusterID]*serveLoad
}

// serveLoad is one cluster's per-member serve-load measurements for one
// epoch — the content-plane analogue of protocol.ClusterLoad, kept per member
// because the leader's job is to pair overloaded holders with
// under-loaded push targets, not to aggregate.
type serveLoad struct {
	epoch  uint64
	byNode map[model.NodeID]int64
}

// EnableAdaptation turns on the adaptation loop. Idempotent, and a call
// after Close does nothing. Works best with membership enabled (leader
// election then excludes dead nodes); without it, every static cluster
// member is considered electable.
func (n *Node) EnableAdaptation(cfg AdaptConfig) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if !n.closed() {
		n.enableAdaptation(cfg)
	}
}

// EnableAdaptation turns on adaptation on every node of a launched
// cluster.
func (c *Cluster) EnableAdaptation(cfg AdaptConfig) {
	for _, n := range c.Nodes {
		if n != nil {
			n.EnableAdaptation(cfg)
		}
	}
}

// enableAdaptation starts the epoch clock. Caller holds routeMu.Lock.
func (n *Node) enableAdaptation(cfg AdaptConfig) {
	if n.adapt != nil {
		return
	}
	cfg = cfg.withDefaults()
	var mine []model.ClusterID
	for cl, ms := range n.members {
		if containsNode(ms, n.id) {
			mine = append(mine, model.ClusterID(cl))
		}
	}
	n.adapt = &adaptState{
		cfg:    cfg,
		mine:   mine,
		agg:    make(map[model.ClusterID]*protocol.ClusterLoad),
		loads:  make(map[model.ClusterID]*protocol.ClusterLoad),
		serves: make(map[model.ClusterID]*serveLoad),
	}
	n.gauges.Set("adapt_enabled", 1)
	tick := cfg.Interval / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	// The epoch clock rides the shared timerwheel (membership's probe
	// clock also ticks the adaptation layer; both paths are idempotent per
	// step, so double or skipped ticks are harmless — the next tick
	// catches the state machine up).
	n.everyLocked(tick, "adapt_tick_skips", n.adaptTick)
}

// adaptTick advances the epoch state machine. Caller holds routeMu.Lock.
func (n *Node) adaptTick(now time.Time) {
	ad := n.adapt
	if ad == nil {
		return
	}
	e := uint64(now.UnixNano()) / uint64(ad.cfg.Interval)
	if e != ad.epoch {
		ad.epoch = e
		ad.step = 0
	}
	frac := time.Duration(now.UnixNano()) % ad.cfg.Interval
	switch {
	case ad.step == 0:
		n.adaptReport(e)
		if e%cacheDecayEpochs == 0 {
			n.contentDecay()
		}
		ad.step = 1
	case ad.step == 1 && frac >= ad.cfg.Interval/2:
		n.adaptAggregate(e)
		ad.step = 2
	case ad.step == 2 && frac >= 3*ad.cfg.Interval/4:
		n.adaptEvaluate(e)
		ad.step = 3
	}
}

// leaderOf returns the cluster's leader under the current liveness
// view: the first live member in protocol.MoreCapable order. With no
// detector every static member is electable; with one, only members the
// detector considers usable (self included).
func (n *Node) leaderOf(cl model.ClusterID) (model.NodeID, bool) {
	best := model.NodeID(-1)
	var bestU float64
	for _, id := range n.members[cl] {
		if id != n.id && n.det != nil && !n.det.IsLive(id) {
			continue
		}
		u := n.inst.Nodes[id].Units
		if best == -1 || protocol.MoreCapable(id, u, best, bestU) {
			best, bestU = id, u
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

// adaptReport is step 0: drain the query table's hit counters into one
// epoch measurement and report it to each of this node's clusters'
// leaders. The drain itself resets the counters, so each report
// covers exactly one epoch.
func (n *Node) adaptReport(e uint64) {
	ad := n.adapt
	measured := n.drainHits()
	// The content plane reports alongside the query plane: the drained
	// per-doc serve window feeds this node's own hot-doc ranking
	// (lastServed, read when a push hint arrives) and its total rides
	// the same LeaderLoad frame to the leader.
	servedDocs, servedTotal := n.drainServed()
	if len(servedDocs) > 0 {
		n.lastServed = servedDocs
	}
	for _, cl := range ad.mine {
		hits := make(map[catalog.CategoryID]int64)
		for c, h := range measured {
			if h > 0 && n.dcrt[c].Cluster == cl {
				hits[c] = h
			}
		}
		units := protocol.UnitMass(n.inst.Catalog, n.inst.Nodes[n.id].Units, n.byCat, n.dcrt, cl)
		leader, ok := n.leaderOf(cl)
		if !ok {
			continue
		}
		if leader == n.id {
			ad.aggregate(cl, e).Add(hits, units)
			ad.mergeServe(cl, e, n.id, servedTotal)
			continue
		}
		if len(hits) == 0 && len(units) == 0 && servedTotal == 0 {
			continue
		}
		n.send(leader, wire.LeaderLoad{Epoch: e, Cluster: cl, Hits: hits, Units: units, Served: servedTotal})
	}
}

// contentDecay ages the replica cache one decay interval: cached copies
// not served since the previous pass are dropped, and the demand window
// gating cache admission resets — so "recent demand" means within the
// last few epochs on both sides.
func (n *Node) contentDecay() {
	if n.store == nil || n.cacheAdmit <= 0 {
		return
	}
	if dropped := n.store.Decay(); len(dropped) > 0 {
		n.stats.Add("content_cache_decayed", int64(len(dropped)))
	}
	n.resetDemand()
}

// aggregate returns the leader's accumulator for a cluster's member
// reports of epoch e; a report from another epoch starts a fresh one.
func (ad *adaptState) aggregate(cl model.ClusterID, e uint64) *protocol.ClusterLoad {
	st := ad.agg[cl]
	if st == nil || st.Epoch != e {
		st = &protocol.ClusterLoad{Epoch: e}
		ad.agg[cl] = st
	}
	return st
}

// mergeServe records one member's serve-load report at a leader; a
// report from a newer epoch resets the accumulator.
func (ad *adaptState) mergeServe(cl model.ClusterID, e uint64, from model.NodeID, served int64) {
	sv := ad.serves[cl]
	if sv == nil || sv.epoch != e {
		sv = &serveLoad{epoch: e, byNode: make(map[model.NodeID]int64)}
		ad.serves[cl] = sv
	}
	sv.byNode[from] = served
}

const (
	// pushHintMinServes is the absolute serve-load floor below which a
	// member is never flagged overloaded — trivial load needs no
	// replication however skewed it is.
	pushHintMinServes = 16
	// maxLiteTargets caps how many under-loaded members one hint names.
	maxLiteTargets = 4
)

// pushHints is the leader half of demand-driven replication, run at
// aggregation time: pair members whose measured serve load is far above
// the cluster mean with the lightest-loaded live members, and tell each
// overloaded holder who to push at (LeaderLoad.Lite). Members that
// reported nothing count as zero load — they are exactly the idle
// capacity a flash crowd should spread onto.
func (n *Node) pushHints(cl model.ClusterID, e uint64) {
	ad := n.adapt
	sv := ad.serves[cl]
	if sv == nil || sv.epoch != e || len(sv.byNode) == 0 {
		return
	}
	members := n.members[cl]
	if len(members) < 2 {
		return
	}
	var total int64
	for _, w := range sv.byNode {
		total += w
	}
	if total < pushHintMinServes {
		return
	}
	mean := float64(total) / float64(len(members))
	var lite []model.NodeID
	for _, id := range members {
		if id != n.id && n.det != nil && !n.det.IsLive(id) {
			continue
		}
		if float64(sv.byNode[id]) <= mean {
			lite = append(lite, id)
		}
	}
	sort.Slice(lite, func(i, j int) bool {
		if sv.byNode[lite[i]] != sv.byNode[lite[j]] {
			return sv.byNode[lite[i]] < sv.byNode[lite[j]]
		}
		return lite[i] < lite[j]
	})
	if len(lite) > maxLiteTargets {
		lite = lite[:maxLiteTargets]
	}
	if len(lite) == 0 {
		return
	}
	hint := wire.LeaderLoad{Epoch: e, Cluster: cl, Lite: lite}
	for _, id := range members {
		w, reported := sv.byNode[id]
		if !reported || w < pushHintMinServes || float64(w) <= 2*mean {
			continue
		}
		n.stats.Add("replicate_hints", 1)
		if id == n.id {
			n.pushReplicas(lite)
			continue
		}
		n.send(id, hint)
	}
}

// adaptAggregate is step 1 at each leader: finalize the cluster's load
// and share it with every other cluster's leader.
func (n *Node) adaptAggregate(e uint64) {
	ad := n.adapt
	for _, cl := range ad.mine {
		if leader, ok := n.leaderOf(cl); !ok || leader != n.id {
			continue
		}
		n.pushHints(cl, e)
		// Finalize: the accumulator is retired (a late member report for
		// this epoch starts a fresh one that is never read) and the wire
		// message carries deep copies — the transport writers encode the
		// maps outside routeMu, so they must never be the live ones
		// ClusterLoad.Add mutates.
		st := ad.aggregate(cl, e)
		delete(ad.agg, cl)
		ad.loads[cl] = st
		msg := wire.LeaderLoad{Epoch: e, Cluster: cl, Aggregated: true,
			Hits: maps.Clone(st.Hits), Units: maps.Clone(st.Units)}
		for c := 0; c < n.inst.NumClusters; c++ {
			target := model.ClusterID(c)
			if target == cl {
				continue
			}
			if l, ok := n.leaderOf(target); ok && l != n.id {
				n.send(l, msg)
			}
		}
	}
}

// handleLeaderLoad processes both kinds of load message: a member
// report (accepted only by the believed leader of the reporting
// cluster) and a leader-to-leader aggregate.
func (n *Node) handleLeaderLoad(from model.NodeID, m wire.LeaderLoad) {
	ad := n.adapt
	if ad == nil {
		n.stats.Add("adapt_dropped_loads", 1)
		return
	}
	if m.Aggregated {
		if have, ok := ad.loads[m.Cluster]; !ok || m.Epoch > have.Epoch {
			ad.loads[m.Cluster] = &protocol.ClusterLoad{Epoch: m.Epoch, Hits: m.Hits, Units: m.Units}
		}
		return
	}
	if len(m.Lite) > 0 {
		// A leader's replication hint: this node's serve load stood out
		// and Lite names the under-loaded members to push hot replicas
		// at. Accepted only from the believed leader of the named
		// cluster, so a hostile frame cannot direct pushes.
		if leader, ok := n.leaderOf(m.Cluster); ok && leader == from {
			n.pushReplicas(m.Lite)
		} else {
			n.stats.Add("adapt_dropped_loads", 1)
		}
		return
	}
	if leader, ok := n.leaderOf(m.Cluster); !ok || leader != n.id {
		// Liveness views briefly disagree on the leader; drop and let
		// the next epoch converge.
		n.stats.Add("adapt_dropped_loads", 1)
		return
	}
	ad.aggregate(m.Cluster, m.Epoch).Add(m.Hits, m.Units)
	ad.mergeServe(m.Cluster, m.Epoch, from, m.Served)
}

// adaptEvaluate is steps 2–4: every leader surveys the loads it heard;
// the chosen one — the leader of the hottest measured cluster — runs
// protocol.Plan and announces the moves it decides.
func (n *Node) adaptEvaluate(e uint64) {
	ad := n.adapt
	sv := protocol.Measure(ad.loads, e)
	if len(sv.Heard) == 0 {
		return
	}
	n.gauges.Set("fairness_x1000", int64(sv.Fairness*1000))
	n.stats.Add("adapt_evaluations", 1)
	if l, ok := n.leaderOf(sv.Hottest); !ok || l != n.id {
		return
	}
	d, err := protocol.Plan(ad.loads, e, n.inst.NumClusters, len(n.inst.Catalog.Cats),
		protocol.Thresholds{LowThreshold: ad.cfg.LowThreshold, TargetFairness: ad.cfg.TargetFairness, MaxMoves: ad.cfg.MaxMoves})
	if err != nil {
		n.stats.Add("adapt_state_errors", 1)
		return
	}
	for _, mv := range d.Moves {
		entry := protocol.DCRTEntry{Cluster: mv.To, MoveCounter: n.dcrt[mv.Category].MoveCounter + 1}
		n.stats.Add("adapt_moves", 1)
		n.applyMoveEntry(mv.Category, entry)
		// Direct announcement to both affected clusters (steps 1–2 of
		// the lazy rebalancing protocol); gossip covers everyone else.
		announce := wire.Move{Category: mv.Category, From: mv.From, Entry: entry}
		seen := map[model.NodeID]bool{n.id: true}
		for _, cl := range []model.ClusterID{mv.From, mv.To} {
			for _, id := range n.members[cl] {
				if seen[id] {
					continue
				}
				seen[id] = true
				if n.book.has(id) {
					n.send(id, announce)
				}
			}
		}
	}
}

// handleMove applies a direct category-move announcement.
func (n *Node) handleMove(m wire.Move) {
	n.applyMoveEntry(m.Category, m.Entry)
}

// handleMetaUpdate merges epidemically propagated DCRT entries, keeping
// the highest move counter per category (§6.1.2 conflict resolution).
func (n *Node) handleMetaUpdate(m protocol.MetadataUpdateMsg) {
	for _, cat := range m.Categories() {
		n.applyMoveEntry(cat, m.Entries[cat])
	}
}

// applyMoveEntry folds one DCRT entry in under the move-counter rule.
// On change: the node re-runs the intra-cluster placement for the moved
// category over the gaining cluster's launch members and makes it the
// category's holder view; members of the receiving cluster store their
// deterministic share (every node computes the same map, so no
// coordinator is needed); and the entry is re-gossiped — forwarding only
// on change keeps the epidemic bounded.
func (n *Node) applyMoveEntry(cat catalog.CategoryID, e protocol.DCRTEntry) bool {
	m := protocol.MergeEntry(n.dcrt, cat, e)
	if m.Rejected {
		n.stats.Add("adapt_bad_moves", 1)
	}
	if !m.Changed {
		return false
	}
	n.stats.Add("dcrt_moves", 1)
	if m.Known && m.Prev.Cluster != e.Cluster && n.store != nil {
		// Remember the shedding cluster: until the gaining holders
		// finish pulling bytes, it holds the only copies, and
		// fetchSources keeps routing transfers there as a fallback
		// (the paper's lazy rebalancing, made real for the data plane).
		// The record expires — long enough to cover the background
		// shipping, short enough that repeated reassignments cannot grow
		// the map without bound — and every landing move prunes the
		// stale remainder.
		now := time.Now()
		ttl := n.prevClusterTTLOverride
		if ttl <= 0 {
			ttl = prevClusterTTL
		}
		n.prevCluster[cat] = prevClusterRecord{cluster: m.Prev.Cluster, expires: now.Add(ttl)}
		n.prunePrevClusters(now)
	}
	share := replica.PlaceCategory(n.inst, cat, n.members[e.Cluster], replica.DefaultConfig())
	if mine := share[n.id]; len(mine) > 0 {
		// The share leads the category's list: the holder view expects
		// this node to answer from it first.
		rest := slices.DeleteFunc(n.byCat[cat], func(d catalog.DocID) bool { return slices.Contains(mine, d) })
		n.byCat[cat] = append(slices.Clone(mine), rest...)
		var need []catalog.DocID
		for _, d := range mine {
			if n.store != nil && !n.store.Has(d) {
				need = append(need, d)
			}
		}
		// The metadata flips immediately (queries route here now);
		// the bytes arrive asynchronously — a move is not done until
		// the gaining holder has pulled its share from the shedding
		// cluster and installed the real bytes.
		n.queueMoves(need)
	}
	n.holders.move(cat, share)
	n.gossipEntry(cat, e)
	return true
}

// gossipEntry pushes one changed DCRT entry to a few random addressable
// peers (lazy rebalancing step 5).
func (n *Node) gossipEntry(cat catalog.CategoryID, e protocol.DCRTEntry) {
	peers := make([]model.NodeID, 0, n.book.len())
	n.book.forEach(func(id model.NodeID, _ string) bool {
		if id != n.id {
			peers = append(peers, id)
		}
		return true
	})
	if len(peers) == 0 {
		return
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	update := protocol.MetadataUpdateMsg{Entries: map[catalog.CategoryID]protocol.DCRTEntry{cat: e}}
	for i := 0; i < 3; i++ {
		n.send(peers[n.rng.IntN(len(peers))], update)
	}
}

// containsNode reports membership of id in a sorted member list.
func containsNode(ms []model.NodeID, id model.NodeID) bool {
	i := sort.Search(len(ms), func(i int) bool { return ms[i] >= id })
	return i < len(ms) && ms[i] == id
}

// Fairness returns the node's last measured fairness index in
// thousandths (the fairness_x1000 gauge), or -1 when this node has not
// evaluated an epoch (only leaders do).
func (n *Node) Fairness() int64 {
	if v, ok := n.gauges.Snapshot()["fairness_x1000"]; ok {
		return v
	}
	return -1
}
