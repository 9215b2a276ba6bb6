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
//	                      measured state and applies the category
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
// higher counter wins) and spread one way: as DCRT rows piggybacked on
// the failure detector's probes (membership.Detector.QueueMove), so
// adaptation needs the detector. A node forwards a row only when it
// changed its own table. Members of the receiving cluster re-run the
// intra-cluster placement policy for the moved category
// (replica.PlaceCategory) and store their deterministic share, so the
// category is servable at its new home without a coordinator.

import (
	"maps"
	"slices"
	"sort"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/membership"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
	"p2pshare/internal/wire"
)

// AdaptConfig tunes the live adaptation loop. Zero fields take the
// defaults (protocol.DefaultThresholds, a 3s epoch).
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
		c.LowThreshold = protocol.DefaultThresholds.LowThreshold
	}
	if c.TargetFairness <= 0 {
		c.TargetFairness = protocol.DefaultThresholds.TargetFairness
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = protocol.DefaultThresholds.MaxMoves
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
}

// enableAdaptation starts the epoch clock. Caller holds routeMu.Lock.
func (n *Node) enableAdaptation(cfg AdaptConfig) {
	cfg = cfg.withDefaults()
	var mine []model.ClusterID
	for cl, ms := range n.members {
		if containsNode(ms, n.id) {
			mine = append(mine, model.ClusterID(cl))
		}
	}
	n.adapt = &adaptState{
		cfg:   cfg,
		mine:  mine,
		agg:   make(map[model.ClusterID]*protocol.ClusterLoad),
		loads: make(map[model.ClusterID]*protocol.ClusterLoad),
	}
	tick := cfg.Interval / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	// The epoch clock rides the shared timerwheel; a skipped tick is
	// harmless, the next one catches the state machine up.
	n.everyLocked(tick, &n.stats.AdaptTickSkips, n.adaptTick)
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
// view: the first member the detector considers usable (self included)
// in protocol.MoreCapable order.
func (n *Node) leaderOf(cl model.ClusterID) (model.NodeID, bool) {
	best := model.NodeID(-1)
	var bestU float64
	for _, id := range n.members[cl] {
		if !n.det.IsLive(id) {
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
			continue
		}
		if len(hits) == 0 && len(units) == 0 {
			continue
		}
		n.io.send(n.route(leader, wire.LeaderLoad{Epoch: e, Cluster: cl, Hits: hits, Units: units}), laneQueue)
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
	n.store.Decay()
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

// adaptAggregate is step 1 at each leader: finalize the cluster's load
// and share it with every other cluster's leader.
func (n *Node) adaptAggregate(e uint64) {
	ad := n.adapt
	for _, cl := range ad.mine {
		if leader, ok := n.leaderOf(cl); !ok || leader != n.id {
			continue
		}
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
				n.io.send(n.route(l, msg), laneQueue)
			}
		}
	}
}

// handleLeaderLoad processes both kinds of load message: a member
// report (accepted only by the believed leader of the reporting
// cluster) and a leader-to-leader aggregate.
func (n *Node) handleLeaderLoad(m wire.LeaderLoad) {
	ad := n.adapt
	if ad == nil {
		n.stats.AdaptDroppedLoads.Add(1)
		return
	}
	if m.Aggregated {
		if have, ok := ad.loads[m.Cluster]; !ok || m.Epoch > have.Epoch {
			ad.loads[m.Cluster] = &protocol.ClusterLoad{Epoch: m.Epoch, Hits: m.Hits, Units: m.Units}
		}
		return
	}
	if leader, ok := n.leaderOf(m.Cluster); !ok || leader != n.id {
		// Liveness views briefly disagree on the leader; drop and let
		// the next epoch converge.
		n.stats.AdaptDroppedLoads.Add(1)
		return
	}
	ad.aggregate(m.Cluster, m.Epoch).Add(m.Hits, m.Units)
}

// adaptEvaluate is steps 2–4: every leader surveys the loads it heard;
// the chosen one — the leader of the hottest measured cluster — runs
// protocol.Plan and applies the moves it decides, which queues them on
// the probes' piggyback.
func (n *Node) adaptEvaluate(e uint64) {
	ad := n.adapt
	sv := protocol.Measure(ad.loads, e)
	if len(sv.Heard) == 0 {
		return
	}
	n.fairnessX1000.Store(int64(sv.Fairness * 1000))
	n.stats.AdaptEvaluations.Add(1)
	if l, ok := n.leaderOf(sv.Hottest); !ok || l != n.id {
		return
	}
	d, err := protocol.Plan(ad.loads, e, n.inst.NumClusters, len(n.inst.Catalog.Cats),
		protocol.Thresholds{LowThreshold: ad.cfg.LowThreshold, TargetFairness: ad.cfg.TargetFairness, MaxMoves: ad.cfg.MaxMoves})
	if err != nil {
		n.stats.AdaptStateErrors.Add(1)
		return
	}
	for _, mv := range d.Moves {
		entry := protocol.DCRTEntry{Cluster: mv.To, MoveCounter: n.dcrt[mv.Category].MoveCounter + 1}
		n.stats.AdaptMoves.Add(1)
		n.applyMoveEntry(mv.Category, entry)
	}
}

// applyMoves merges the DCRT rows a probe carried.
func (n *Node) applyMoves(mvs []membership.Move) {
	for _, mv := range mvs {
		n.applyMoveEntry(mv.Category, mv.Entry)
	}
}

// applyMoveEntry folds one DCRT entry in under the move-counter rule:
// the one merge path for rows a probe, a publish ack or this node's own
// adaptation brings. On change: the node re-runs the intra-cluster
// placement for the moved category over the gaining cluster's launch
// members and makes it the category's holder view; members of the
// receiving cluster store their deterministic share (every node computes
// the same map, so no coordinator is needed); and the entry is queued on
// the detector's piggyback — forwarding only on change keeps the
// epidemic bounded.
func (n *Node) applyMoveEntry(cat catalog.CategoryID, e protocol.DCRTEntry) protocol.Merge {
	m := protocol.MergeEntry(n.dcrt, cat, e)
	if m.Rejected {
		n.stats.AdaptBadMoves.Add(1)
	}
	if !m.Changed {
		return m
	}
	n.stats.DCRTMoves.Add(1)
	if m.Known && m.Prev.Cluster != e.Cluster && n.store != nil {
		// Remember the shedding cluster: until the gaining holders
		// finish pulling bytes, it holds the only copies, and
		// fetchSources keeps routing transfers there as a fallback
		// (the paper's lazy rebalancing, made real for the data plane).
		// The record expires — long enough to cover the background
		// shipping, short enough that repeated reassignments cannot grow
		// the map without bound — and every landing move prunes the
		// stale remainder.
		now := n.io.now()
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
	if n.det != nil {
		n.det.QueueMove(membership.Move{Category: cat, Entry: e})
	}
	return m
}

// containsNode reports membership of id in a sorted member list.
func containsNode(ms []model.NodeID, id model.NodeID) bool {
	i := sort.Search(len(ms), func(i int) bool { return ms[i] >= id })
	return i < len(ms) && ms[i] == id
}

// Fairness returns the node's last measured fairness index in
// thousandths (Stats' fairness_x1000), or -1 when this node has not
// evaluated an epoch (only leaders do).
func (n *Node) Fairness() int64 { return n.fairnessX1000.Load() }
