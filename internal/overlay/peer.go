// Package overlay is the peer runtime of the paper's architecture: every
// node keeps the three metadata tables of Figure 1 (DT, DCRT, NRT) and
// speaks the protocols of §3.3 (query processing), §6.2 (publish), §6.3
// (join/leave), and §6.1 (leader election, the four-phase adaptation, and
// the lazy rebalancing protocol), over the deterministic simulator in
// package simnet.
package overlay

import (
	"sort"
	"time"

	"p2pshare/internal/cache"
	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/simnet"
)

// queryState tracks a query this peer originated.
type queryState struct {
	want     int
	issuedAt time.Duration
	docs     map[catalog.DocID]bool
	done     bool
	doneAt   time.Duration
	// maxHops is the largest forwarding distance among received results.
	maxHops int
	// completionHops is the hop count of the result that satisfied the
	// query.
	completionHops int
}

// Peer is one simulated node.
type Peer struct {
	sys   *System
	id    model.NodeID
	addr  int
	units float64

	// dt is the Document Table: stored documents and their category
	// (Figure 1; multi-category documents record their first category,
	// matching the figure's single-category rows).
	dt map[catalog.DocID]catalog.CategoryID
	// byCat indexes stored documents by category in insertion order.
	// Protocol handlers iterate it instead of the dt map so behaviour is
	// deterministic for a fixed seed.
	byCat map[catalog.CategoryID][]catalog.DocID
	// dcrt maps categories to serving clusters.
	dcrt map[catalog.CategoryID]DCRTEntry
	// nrt lists known nodes per cluster. For the peer's own clusters the
	// entries double as the in-cluster forwarding/gossip neighbors.
	nrt map[model.ClusterID][]model.NodeID
	// clusters this peer belongs to.
	clusters []model.ClusterID

	// hits counts requests served per category (the §6.1.2 monitoring
	// counters); served is their total.
	hits   map[catalog.CategoryID]int64
	served int64

	// seen provides query-loop detection by query id (§3.3).
	seen map[uint64]bool
	// queries tracks queries this peer originated.
	queries map[uint64]*queryState

	// Leader election and adaptation state, per cluster.
	knownCaps map[model.ClusterID]map[model.NodeID]float64
	leaders   map[model.ClusterID]model.NodeID

	// Aggregation-tree state for the current epoch, per cluster.
	agg map[model.ClusterID]*aggState

	// pendingFetch parks docs this peer should serve but has not yet
	// received from its coupling node (lazy rebalancing step 4).
	pendingFetch map[catalog.DocID]model.NodeID

	// pendingPublish tracks in-flight publishes awaiting acks.
	pendingPublish map[catalog.DocID]*publishState

	// leaderLoads collects phase-2 load reports (leaders only).
	leaderLoads map[model.ClusterID]*protocol.ClusterLoad
	// recentMeta queues DCRT changes for epidemic propagation.
	recentMeta map[catalog.CategoryID]DCRTEntry
	// seenLeaves dedupes re-flooded leave announcements.
	seenLeaves map[model.NodeID]bool

	// index is the cluster metadata held by super peers (ModeSuperPeer).
	index *clusterIndex
	// ri is the per-neighbor per-category reachability count
	// (ModeRoutingIndex).
	ri map[model.NodeID]map[catalog.CategoryID]int

	// docCache holds documents received as query results (§7 viii
	// extension); nil when caching is disabled.
	docCache *cache.Cache
	// cacheByCat indexes cached docs per category; entries may be stale
	// after eviction and are pruned on read.
	cacheByCat map[catalog.CategoryID][]catalog.DocID
}

// cachedIn returns up to max currently-cached documents of a category,
// pruning evicted ids from the index as it goes.
func (p *Peer) cachedIn(cat catalog.CategoryID, max int) []catalog.DocID {
	if p.docCache == nil {
		return nil
	}
	list := p.cacheByCat[cat]
	live := list[:0]
	var out []catalog.DocID
	for _, d := range list {
		if !p.docCache.Peek(d) {
			continue // evicted; prune
		}
		live = append(live, d)
		if len(out) < max {
			out = append(out, d)
		}
	}
	p.cacheByCat[cat] = live
	return out
}

// cacheDocs inserts received result documents into the peer's cache.
func (p *Peer) cacheDocs(docs []catalog.DocID) {
	if p.docCache == nil {
		return
	}
	for _, d := range docs {
		doc := p.sys.inst.Catalog.Doc(d)
		if doc == nil || p.docCache.Peek(d) {
			continue
		}
		p.docCache.Insert(d, doc.Size)
		if p.docCache.Peek(d) {
			cat := doc.Categories[0]
			p.cacheByCat[cat] = append(p.cacheByCat[cat], d)
		}
	}
}

// aggState is a node's view of one cluster's phase-1 aggregation tree.
type aggState struct {
	// load is the subtree's aggregate so far (the cluster's, at the root).
	load     protocol.ClusterLoad
	parent   model.NodeID
	isRoot   bool
	waiting  int
	reported bool
}

// ID returns the peer's node id.
func (p *Peer) ID() model.NodeID { return p.id }

// Served returns the total requests this peer has served.
func (p *Peer) Served() int64 { return p.served }

// Hits returns the per-category hit counters (live map; callers must not
// mutate).
func (p *Peer) Hits() map[catalog.CategoryID]int64 { return p.hits }

// DCRT returns the peer's current category→cluster view (live map;
// callers must not mutate).
func (p *Peer) DCRT() map[catalog.CategoryID]DCRTEntry { return p.dcrt }

// Stores reports whether the peer currently stores the document.
func (p *Peer) Stores(d catalog.DocID) bool {
	_, ok := p.dt[d]
	return ok
}

// StoredCount returns how many documents the peer stores.
func (p *Peer) StoredCount() int { return len(p.dt) }

// Clusters returns the clusters the peer belongs to.
func (p *Peer) Clusters() []model.ClusterID { return p.clusters }

// Leader returns the peer's believed leader for a cluster.
func (p *Peer) Leader(cl model.ClusterID) (model.NodeID, bool) {
	l, ok := p.leaders[cl]
	return l, ok
}

// routeCategory resolves a category through the peer's DCRT. Categories
// with no published documents default to cluster 0, mirroring the publish
// protocol's bootstrap rule (§6.2 step 3).
func (p *Peer) routeCategory(c catalog.CategoryID) DCRTEntry {
	if e, ok := p.dcrt[c]; ok {
		return e
	}
	return DCRTEntry{Cluster: 0}
}

// store inserts a document into the peer's DT.
func (p *Peer) store(d catalog.DocID) {
	if _, ok := p.dt[d]; ok {
		return
	}
	cat := p.sys.inst.Catalog.Doc(d).Categories[0]
	p.dt[d] = cat
	p.byCat[cat] = append(p.byCat[cat], d)
	p.notifySuperPeer(d, true)
}

// drop removes a document from the peer's DT.
func (p *Peer) drop(d catalog.DocID) {
	cat, ok := p.dt[d]
	if !ok {
		return
	}
	delete(p.dt, d)
	list := p.byCat[cat]
	for i, di := range list {
		if di == d {
			p.byCat[cat] = append(list[:i], list[i+1:]...)
			break
		}
	}
	p.notifySuperPeer(d, false)
}

// storedIn returns the stored documents of one category (live slice; do
// not mutate).
func (p *Peer) storedIn(cat catalog.CategoryID) []catalog.DocID { return p.byCat[cat] }

// storedCategories returns the categories this peer stores documents of,
// in ascending order.
func (p *Peer) storedCategories() []catalog.CategoryID {
	out := make([]catalog.CategoryID, 0, len(p.byCat))
	for c, docs := range p.byCat {
		if len(docs) > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// inCluster reports whether the peer currently belongs to cluster cl.
func (p *Peer) inCluster(cl model.ClusterID) bool {
	for _, c := range p.clusters {
		if c == cl {
			return true
		}
	}
	return false
}

// joinCluster records membership (idempotent).
func (p *Peer) joinCluster(cl model.ClusterID) {
	if !p.inCluster(cl) {
		p.clusters = append(p.clusters, cl)
	}
}

// neighbors returns the peer's known nodes in a cluster.
func (p *Peer) neighbors(cl model.ClusterID) []model.NodeID { return p.nrt[cl] }

// rememberNode adds a node to the NRT entry for a cluster, evicting the
// oldest entry beyond the configured cap (the paper suggests LRU
// replacement for fast-growing NRTs, §6.2 step 5).
func (p *Peer) rememberNode(cl model.ClusterID, n model.NodeID) {
	if n == p.id {
		return
	}
	list := p.nrt[cl]
	for _, m := range list {
		if m == n {
			return
		}
	}
	list = append(list, n)
	if len(list) > nrtCap {
		list = list[len(list)-nrtCap:]
	}
	p.nrt[cl] = list
}

// Deliver dispatches incoming messages to the protocol handlers.
func (p *Peer) Deliver(net *simnet.Network, from int, msg simnet.Message) {
	switch m := msg.(type) {
	case QueryMsg:
		p.handleQuery(m)
	case ResultMsg:
		p.handleResult(m)
	case PublishMsg:
		p.handlePublish(from, m)
	case PublishAckMsg:
		p.handlePublishAck(m)
	case JoinRequestMsg:
		p.handleJoinRequest(from, m)
	case JoinReplyMsg:
		p.handleJoinReply(m)
	case LeaveMsg:
		p.handleLeave(m)
	case CapabilityMsg:
		p.handleCapability(m)
	case HitRequestMsg:
		p.handleHitRequest(from, m)
	case HitReplyMsg:
		p.handleHitReply(from, m)
	case LeaderLoadMsg:
		p.handleLeaderLoad(m)
	case MetadataUpdateMsg:
		p.handleMetadataUpdate(m)
	case ManifestMsg:
		p.handleManifest(m)
	case TransferMsg:
		p.handleTransfer(m)
	case FetchMsg:
		p.handleFetch(from, m)
	case FetchReplyMsg:
		p.handleFetchReply(m)
	case IndexQueryMsg:
		p.handleIndexQuery(m)
	case DirectServeMsg:
		p.handleDirectServe(m)
	case IndexUpdateMsg:
		p.handleIndexUpdate(m)
	}
}
