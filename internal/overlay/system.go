package overlay

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"p2pshare/internal/cache"
	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
	"p2pshare/internal/simnet"
)

// The overlay's fixed shape (the paper's examples).
const (
	// neighborDegree is the number of in-cluster forwarding/gossip
	// neighbors per node (a ring plus random chords keeps every cluster
	// connected).
	neighborDegree = 4
	// nrtCap bounds NRT entries learned at runtime per cluster; the
	// paper suggests LRU replacement (§6.2).
	nrtCap = 64
)

// Config tunes the overlay runtime: only what callers vary. The contact
// counts are protocol.RemoteContacts and protocol.PublishFanout, the
// adaptation knobs protocol.DefaultThresholds, and the latency model
// simnet's default.
type Config struct {
	// Mode selects the intra-cluster content-location design (§3.1):
	// flooding (default), super peers, or routing indices.
	Mode Mode
	// Seed drives all runtime randomness.
	Seed int64

	// CacheBytes enables the §7(viii) extension: each peer keeps a
	// byte-budgeted cache of documents received as query results and
	// answers repeat requests locally (zero hops). 0 disables caching.
	CacheBytes int64
	// CachePolicy selects the replacement algorithm (LRU default).
	CachePolicy cache.Policy
}

// DefaultConfig returns sensible simulation defaults matching the paper's
// examples.
func DefaultConfig() Config {
	return Config{Seed: 1}
}

// QueryReport summarizes one finished (or drained) query.
type QueryReport struct {
	ID uint64
	// Done is true when the query gathered its m distinct results.
	Done bool
	// Results is the number of distinct documents received.
	Results int
	// ResponseTime is the simulated time from issue to completion
	// (meaningful only when Done).
	ResponseTime time.Duration
	// Hops is the forwarding distance of the result that completed the
	// query (or the max observed if incomplete).
	Hops int
}

// System wires an instance, an initial assignment, and a replica placement
// into a running overlay of peers.
type System struct {
	inst  *model.Instance
	cfg   Config
	net   *simnet.Network
	rng   *rand.Rand
	peers []*Peer

	// assign is the system's record of the current category→cluster
	// truth; peers route by their own (possibly stale) DCRTs.
	assign       []model.ClusterID
	moveCounters []uint64

	nextQuery uint64
	// failed counts queries that could not be routed at all.
	failed int
	// cacheLookups/cacheHits count per-query cache consultations and the
	// ones fully answered locally (§7 viii extension).
	cacheLookups, cacheHits int

	epoch uint64
	// adaptReport collects the in-progress adaptation round's outcome.
	adaptReport *AdaptationReport

	// superPeers designates each cluster's metadata holder in
	// ModeSuperPeer (most capable member, ties to the lowest id).
	superPeers map[model.ClusterID]model.NodeID
}

// NewSystem bootstraps the overlay: one peer per instance node, metadata
// tables primed from the assignment and placement (the paper's bootstrap
// assumes up-to-date metadata, §3.3).
func NewSystem(inst *model.Instance, assign []model.ClusterID, place *replica.Placement, cfg Config) (*System, error) {
	if len(assign) != len(inst.Catalog.Cats) {
		return nil, fmt.Errorf("overlay: assignment covers %d of %d categories",
			len(assign), len(inst.Catalog.Cats))
	}
	mem, err := model.NewMembership(inst, assign)
	if err != nil {
		return nil, err
	}
	s := &System{
		inst:         inst,
		cfg:          cfg,
		net:          simnet.New(simnet.DefaultLatency, cfg.Seed),
		assign:       append([]model.ClusterID(nil), assign...),
		moveCounters: make([]uint64, len(assign)),
	}
	s.rng = s.net.Rng()

	// Create peers; process address == node id by construction.
	for k := range inst.Nodes {
		p := &Peer{
			sys:          s,
			id:           inst.Nodes[k].ID,
			units:        inst.Nodes[k].Units,
			dt:           make(map[catalog.DocID]catalog.CategoryID),
			byCat:        make(map[catalog.CategoryID][]catalog.DocID),
			dcrt:         make(map[catalog.CategoryID]DCRTEntry),
			nrt:          make(map[model.ClusterID][]model.NodeID),
			hits:         make(map[catalog.CategoryID]int64),
			seen:         make(map[uint64]bool),
			queries:      make(map[uint64]*queryState),
			knownCaps:    make(map[model.ClusterID]map[model.NodeID]float64),
			leaders:      make(map[model.ClusterID]model.NodeID),
			agg:          make(map[model.ClusterID]*aggState),
			pendingFetch: make(map[catalog.DocID]model.NodeID),
		}
		if cfg.CacheBytes > 0 {
			dc, err := cache.New(cfg.CachePolicy, cfg.CacheBytes)
			if err != nil {
				return nil, err
			}
			p.docCache = dc
			p.cacheByCat = make(map[catalog.CategoryID][]catalog.DocID)
		}
		p.addr = s.net.AddProcess(p)
		if p.addr != int(p.id) {
			return nil, fmt.Errorf("overlay: address %d != node id %d", p.addr, p.id)
		}
		s.peers = append(s.peers, p)
	}

	// Prime DTs from the placement (or bare contributions without one).
	if place != nil {
		for k := range s.peers {
			for _, di := range place.Stored[k] {
				s.peers[k].store(di)
			}
		}
	} else {
		for k := range s.peers {
			for _, di := range inst.Nodes[k].Contributed {
				s.peers[k].store(di)
			}
		}
	}

	// Prime DCRTs: every peer knows the full category→cluster map.
	for c, cl := range assign {
		if cl == model.NoCluster {
			continue
		}
		for _, p := range s.peers {
			p.dcrt[catalog.CategoryID(c)] = DCRTEntry{Cluster: cl}
		}
	}

	// Cluster membership and NRTs.
	for k := range s.peers {
		s.peers[k].clusters = append([]model.ClusterID(nil), mem.ClustersOf(model.NodeID(k))...)
	}
	for c := 0; c < inst.NumClusters; c++ {
		s.wireCluster(model.ClusterID(c), mem.NodesOf(model.ClusterID(c)))
	}
	// Foreign-cluster contacts for query routing.
	for _, p := range s.peers {
		for c := 0; c < inst.NumClusters; c++ {
			cl := model.ClusterID(c)
			if p.inCluster(cl) {
				continue
			}
			members := mem.NodesOf(cl)
			if len(members) == 0 {
				continue
			}
			for i := 0; i < protocol.RemoteContacts; i++ {
				p.nrt[cl] = appendUnique(p.nrt[cl], members[s.rng.Intn(len(members))], p.id)
			}
		}
	}

	switch cfg.Mode {
	case ModeSuperPeer:
		s.bootstrapSuperPeers(mem)
	case ModeRoutingIndex:
		s.bootstrapRoutingIndices(mem)
	}
	return s, nil
}

// bootstrapSuperPeers designates each cluster's most capable member as its
// super peer and primes its cluster index from the members' DTs (the
// bootstrap assumes up-to-date metadata, as §3.3 does).
func (s *System) bootstrapSuperPeers(mem *model.Membership) {
	s.superPeers = make(map[model.ClusterID]model.NodeID)
	for c := 0; c < s.inst.NumClusters; c++ {
		cl := model.ClusterID(c)
		members := mem.NodesOf(cl)
		if len(members) == 0 {
			continue
		}
		best := members[0]
		for _, n := range members[1:] {
			if s.peers[n].units > s.peers[best].units ||
				(s.peers[n].units == s.peers[best].units && n < best) {
				best = n
			}
		}
		s.superPeers[cl] = best
		sp := s.peers[best]
		if sp.index == nil {
			sp.index = newClusterIndex()
		}
		for _, n := range members {
			for _, cat := range s.peers[n].storedCategories() {
				if s.assign[cat] != cl {
					continue
				}
				for _, d := range s.peers[n].storedIn(cat) {
					sp.index.add(d, cat, n)
				}
			}
		}
	}
}

// bootstrapRoutingIndices primes each peer's per-neighbor reachability
// counts with a horizon of two hops (own documents of the neighbor plus
// its neighbors'), after Crespo/Garcia-Molina's compound routing indices.
func (s *System) bootstrapRoutingIndices(mem *model.Membership) {
	own := make([]map[catalog.CategoryID]int, len(s.peers))
	for k, p := range s.peers {
		own[k] = make(map[catalog.CategoryID]int)
		for _, cat := range p.storedCategories() {
			own[k][cat] = len(p.storedIn(cat))
		}
	}
	for _, p := range s.peers {
		p.ri = make(map[model.NodeID]map[catalog.CategoryID]int)
		for _, cl := range p.clusters {
			for _, nb := range p.neighbors(cl) {
				counts := p.ri[nb]
				if counts == nil {
					counts = make(map[catalog.CategoryID]int)
					p.ri[nb] = counts
				}
				for cat, n := range own[nb] {
					counts[cat] += n
				}
				for _, nn := range s.peers[nb].neighbors(cl) {
					if nn == p.id {
						continue
					}
					for cat, n := range own[nn] {
						counts[cat] += n
					}
				}
			}
		}
	}
}

// SuperPeer returns the designated super peer of a cluster (ModeSuperPeer
// only).
func (s *System) SuperPeer(cl model.ClusterID) (model.NodeID, bool) {
	n, ok := s.superPeers[cl]
	return n, ok
}

// wireCluster builds the in-cluster neighbor graph: a ring over the sorted
// members plus random chords up to neighborDegree. The ring guarantees
// connectivity, so intra-cluster flooding reaches every member (the §3.3
// worst-case response bound needs exactly this).
func (s *System) wireCluster(cl model.ClusterID, members []model.NodeID) {
	if len(members) < 2 {
		return
	}
	sorted := append([]model.NodeID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	link := func(a, b model.NodeID) {
		if a == b {
			return
		}
		pa, pb := s.peers[a], s.peers[b]
		pa.nrt[cl] = appendUnique(pa.nrt[cl], b, a)
		pb.nrt[cl] = appendUnique(pb.nrt[cl], a, b)
	}
	for i, a := range sorted {
		link(a, sorted[(i+1)%len(sorted)])
	}
	extra := neighborDegree - 2
	for _, a := range sorted {
		for e := 0; e < extra; e++ {
			link(a, sorted[s.rng.Intn(len(sorted))])
		}
	}
}

func appendUnique(list []model.NodeID, n, self model.NodeID) []model.NodeID {
	if n == self {
		return list
	}
	for _, m := range list {
		if m == n {
			return list
		}
	}
	return append(list, n)
}

// Net exposes the underlying simulator (for running, killing nodes,
// reading traffic stats).
func (s *System) Net() *simnet.Network { return s.net }

// Peer returns the peer for a node id.
func (s *System) Peer(id model.NodeID) *Peer { return s.peers[id] }

// NumPeers returns the peer count.
func (s *System) NumPeers() int { return len(s.peers) }

// Assignment returns the system's current category→cluster truth.
func (s *System) Assignment() []model.ClusterID {
	return append([]model.ClusterID(nil), s.assign...)
}

// FailedQueries counts queries that could not be routed to any live node.
func (s *System) FailedQueries() int { return s.failed }

// IssueQuery starts the §3.3 two-step query protocol at the origin node
// for a category, seeking m results. It returns the query id; use
// QueryReport after running the network to inspect the outcome.
func (s *System) IssueQuery(origin model.NodeID, cat catalog.CategoryID, m int) uint64 {
	s.nextQuery++
	id := s.nextQuery
	p := s.peers[origin]
	st := &queryState{
		want:     m,
		issuedAt: s.net.Now(),
		docs:     make(map[catalog.DocID]bool),
	}
	p.queries[id] = st

	// §7(viii) cache extension: answer from the origin's own cache first.
	if p.docCache != nil {
		s.cacheLookups++
		for _, d := range p.cachedIn(cat, m) {
			p.docCache.Contains(d) // refresh recency/frequency
			st.docs[d] = true
		}
		if len(st.docs) >= m {
			s.cacheHits++
			st.done = true
			st.doneAt = s.net.Now()
			st.completionHops = 0
			return id
		}
		m -= len(st.docs)
	}

	entry := p.routeCategory(cat)

	// Super-peer mode: the query goes straight to the cluster's metadata
	// holder, which dispatches it to specific members.
	if s.cfg.Mode == ModeSuperPeer {
		if sp, ok := s.superPeers[entry.Cluster]; ok && s.net.Alive(int(sp)) {
			s.net.Send(p.addr, int(sp), IndexQueryMsg{
				ID:       id,
				Category: cat,
				Want:     m,
				Origin:   origin,
				Hops:     1,
			})
			return id
		}
		// Dead or missing super peer: fall through to the flood path.
	}

	target, ok := s.randomLiveNode(p, entry.Cluster)
	if !ok {
		// "If no live node exists, the query will fail." (§3.3)
		s.failed++
		return id
	}
	s.net.Send(p.addr, int(target), QueryMsg{
		ID:       id,
		Category: cat,
		Want:     m,
		Origin:   origin,
		Hops:     1,
		Entry:    true,
	})
	return id
}

// IssueQueryKeywords resolves keywords to a category through the given
// classifier-style function before issuing (step 1a of §3.3); callers
// usually pass classify.Classifier.Best.
func (s *System) IssueQueryKeywords(origin model.NodeID, best func([]string) (catalog.CategoryID, bool), keywords []string, m int) (uint64, error) {
	cat, ok := best(keywords)
	if !ok {
		return 0, fmt.Errorf("overlay: keywords %v match no category", keywords)
	}
	return s.IssueQuery(origin, cat, m), nil
}

// randomLiveNode picks a live node from p's NRT for the cluster.
func (s *System) randomLiveNode(p *Peer, cl model.ClusterID) (model.NodeID, bool) {
	list := p.neighbors(cl)
	if len(list) == 0 {
		return 0, false
	}
	// Up to a few attempts to dodge dead entries.
	for try := 0; try < 4; try++ {
		n := list[s.rng.Intn(len(list))]
		if s.net.Alive(int(n)) {
			return n, true
		}
	}
	for _, n := range list {
		if s.net.Alive(int(n)) {
			return n, true
		}
	}
	return 0, false
}

// QueryReport returns the state of a query originated at node origin.
func (s *System) QueryReport(origin model.NodeID, id uint64) (QueryReport, bool) {
	st, ok := s.peers[origin].queries[id]
	if !ok {
		return QueryReport{}, false
	}
	r := QueryReport{
		ID:      id,
		Done:    st.done,
		Results: len(st.docs),
		Hops:    st.maxHops,
	}
	if st.done {
		r.ResponseTime = st.doneAt - st.issuedAt
		r.Hops = st.completionHops
	}
	return r, true
}

// Run drains the network.
func (s *System) Run() error {
	_, err := s.net.Run(0)
	return err
}

// ServedLoads returns the per-node served-request counts — the paper's
// load metric.
func (s *System) ServedLoads() []float64 {
	out := make([]float64, len(s.peers))
	for i, p := range s.peers {
		out[i] = float64(p.served)
	}
	return out
}

// ClusterLoads sums served requests per cluster under the current truth
// assignment.
func (s *System) ClusterLoads() []float64 {
	out := make([]float64, s.inst.NumClusters)
	for _, p := range s.peers {
		for cat, n := range p.hits {
			if cl := s.assign[cat]; cl != model.NoCluster {
				out[cl] += float64(n)
			}
		}
	}
	return out
}

// MeasuredNormalizedLoads returns per-cluster hits divided by the
// cluster's effective units (aggregated from the live peers' stored
// documents) — the same quantity the adaptation's phase 3 computes, but
// evaluated omnisciently for experiments that need it without running an
// adaptation round.
func (s *System) MeasuredNormalizedLoads() []float64 {
	hits := s.ClusterLoads()
	units := make([]float64, s.inst.NumClusters)
	for _, p := range s.peers {
		if !s.net.Alive(p.addr) {
			continue
		}
		for c := 0; c < s.inst.NumClusters; c++ {
			for _, u := range p.ownUnits(model.ClusterID(c)) {
				units[c] += u
			}
		}
	}
	out := make([]float64, s.inst.NumClusters)
	for c := range out {
		switch {
		case units[c] == 0 && hits[c] == 0:
			out[c] = 0
		case units[c] == 0:
			out[c] = hits[c] // no capacity behind the load; report raw
		default:
			out[c] = hits[c] / units[c]
		}
	}
	return out
}

// ResetHitCounters zeroes every peer's per-category hit counters (epoch
// boundaries in dynamic experiments).
func (s *System) ResetHitCounters() {
	for _, p := range s.peers {
		p.hits = make(map[catalog.CategoryID]int64)
		p.served = 0
	}
}

// CacheHitRatio is the fraction of issued queries answered entirely from
// the origin's document cache (0 when caching is disabled or before any
// query).
func (s *System) CacheHitRatio() float64 {
	if s.cacheLookups == 0 {
		return 0
	}
	return float64(s.cacheHits) / float64(s.cacheLookups)
}
