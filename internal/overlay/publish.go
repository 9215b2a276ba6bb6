package overlay

import (
	"fmt"

	"p2pshare/internal/cache"
	"sort"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// publishState tracks one in-flight publish at the publishing node.
type publishState struct {
	category catalog.CategoryID
	attempts int
	dummy    bool
}

// maxPublishAttempts bounds the §6.2 step-5 retry loop ("this procedure
// will be repeated until the correct target cluster has been found"): with
// move counters resolving staleness, a handful of redirects suffices.
const maxPublishAttempts = 8

// Publish runs the §6.2 publish protocol for document d at node n. The
// document must already be attached to n in the instance (its
// contributor); the protocol distributes the metadata.
func (s *System) Publish(n model.NodeID, d catalog.DocID) error {
	doc := s.inst.Catalog.Doc(d)
	if doc == nil {
		return fmt.Errorf("overlay: unknown document %d", d)
	}
	p := s.peers[n]
	p.store(d)
	for _, cat := range doc.Categories {
		// Step 2: an existing DT entry for this category means the node
		// already announced itself to the category's cluster.
		already := false
		for di, c := range p.dt {
			if di != d && c == cat {
				already = true
				break
			}
		}
		if already {
			continue
		}
		p.startPublish(d, cat, false)
	}
	return nil
}

// startPublish sends the publish message to the target cluster (steps 3–4).
func (p *Peer) startPublish(d catalog.DocID, cat catalog.CategoryID, dummy bool) {
	if p.pendingPublish == nil {
		p.pendingPublish = make(map[catalog.DocID]*publishState)
	}
	st := p.pendingPublish[d]
	if st == nil {
		st = &publishState{category: cat, dummy: dummy}
		p.pendingPublish[d] = st
	}
	st.attempts++
	if st.attempts > maxPublishAttempts {
		delete(p.pendingPublish, d)
		return
	}
	// Step 3: zero-document categories route to cluster 0 by default.
	entry := p.routeCategory(cat)
	targets := p.neighbors(entry.Cluster)
	if len(targets) == 0 {
		// Know nobody there: ask any known node, which will redirect us
		// via its ack. Fall back to a random live peer from any cluster.
		if t, ok := p.anyContact(); ok {
			targets = []model.NodeID{t}
		} else {
			delete(p.pendingPublish, d)
			return
		}
	}
	fanout := min(protocol.PublishFanout, len(targets))
	// Step 4: send "publish" to nodes of the target cluster.
	for i := 0; i < fanout; i++ {
		t := targets[p.sys.rng.Intn(len(targets))]
		p.sys.net.Send(p.addr, int(t), PublishMsg{
			Doc:       d,
			Category:  cat,
			Publisher: p.id,
			Dummy:     dummy,
		})
	}
}

// anyContact returns a live node from the peer's NRT, scanning clusters in
// ascending order for determinism.
func (p *Peer) anyContact() (model.NodeID, bool) {
	cls := make([]model.ClusterID, 0, len(p.nrt))
	for cl := range p.nrt {
		cls = append(cls, cl)
	}
	sort.Slice(cls, func(i, j int) bool { return cls[i] < cls[j] })
	for _, cl := range cls {
		for _, n := range p.nrt[cl] {
			if p.sys.net.Alive(int(n)) {
				return n, true
			}
		}
	}
	return 0, false
}

// handlePublish is the receiver side of §6.2 step 5.
func (p *Peer) handlePublish(from int, m PublishMsg) {
	entry, known := p.dcrt[m.Category]
	if !known {
		// A brand-new category is born on the default cluster, which is
		// exactly where the publisher sent us (or we redirect it there).
		entry = DCRTEntry{Cluster: 0}
		if !m.Dummy {
			p.dcrt[m.Category] = entry
		}
	}
	accepted := p.inCluster(entry.Cluster)
	if accepted {
		// Receivers in the serving cluster record the new member.
		p.rememberNode(entry.Cluster, m.Publisher)
	}
	members := p.neighbors(entry.Cluster)
	sample := members
	if len(sample) > 8 {
		sample = sample[:8]
	}
	p.sys.net.Send(p.addr, from, PublishAckMsg{
		Doc:      m.Doc,
		Category: m.Category,
		Entry:    entry,
		Accepted: accepted,
		Members:  append([]model.NodeID(nil), sample...),
	})
}

// handlePublishAck closes the publish loop at the publisher: merge the
// receiver's metadata and retry toward the right cluster if redirected.
func (p *Peer) handlePublishAck(m PublishAckMsg) {
	// Merge the DCRT entry (a dummy publish's category is no category and
	// merges nothing). On a rejection the receiver's entry is adopted
	// even at an equal move counter: the publisher just learned its own
	// view routed the publish to the wrong cluster, and §6.2 step 5 says
	// the publisher follows the receivers' metadata.
	var merged protocol.Merge
	if m.Category != dummyCategory {
		merged = protocol.MergeEntry(p.dcrt, m.Category, m.Entry)
	}
	if !m.Accepted && merged.Known && m.Entry.MoveCounter == merged.Prev.MoveCounter {
		p.dcrt[m.Category] = m.Entry
	}
	for _, n := range m.Members {
		p.rememberNode(m.Entry.Cluster, n)
	}
	st := p.pendingPublish[m.Doc]
	if st == nil {
		return // already settled by an earlier ack
	}
	if m.Accepted {
		delete(p.pendingPublish, m.Doc)
		p.joinCluster(m.Entry.Cluster)
		return
	}
	// Redirected: try again toward the cluster the receiver pointed at.
	p.startPublish(m.Doc, st.category, st.dummy)
}

// Join runs the §6.3 join protocol: node n contacts bootstrap, copies its
// metadata, then publishes its contributed documents (or performs a dummy
// publish if it is a free rider).
func (s *System) Join(n, bootstrap model.NodeID) error {
	if int(n) >= len(s.peers) || int(bootstrap) >= len(s.peers) {
		return fmt.Errorf("overlay: unknown node in join (%d via %d)", n, bootstrap)
	}
	if n == bootstrap {
		return fmt.Errorf("overlay: node %d cannot bootstrap from itself", n)
	}
	s.net.Send(int(n), int(bootstrap), JoinRequestMsg{Joiner: n})
	return nil
}

// AddNode grows the running system with a fresh, empty peer (no
// contributions yet) and returns its id. Attach documents through the
// instance and call Join to bring it into the overlay.
func (s *System) AddNode(units float64, storageCap int64) model.NodeID {
	id := model.NodeID(len(s.inst.Nodes))
	s.inst.Nodes = append(s.inst.Nodes, model.Node{ID: id, Units: units, StorageCap: storageCap})
	p := &Peer{
		sys:          s,
		id:           id,
		units:        units,
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
	if s.cfg.CacheBytes > 0 {
		if dc, err := cache.New(s.cfg.CachePolicy, s.cfg.CacheBytes); err == nil {
			p.docCache = dc
			p.cacheByCat = make(map[catalog.CategoryID][]catalog.DocID)
		}
	}
	p.addr = s.net.AddProcess(p)
	s.peers = append(s.peers, p)
	return id
}

// handleJoinRequest serves a joiner with this peer's metadata tables.
func (p *Peer) handleJoinRequest(from int, m JoinRequestMsg) {
	dcrt := make(map[catalog.CategoryID]DCRTEntry, len(p.dcrt))
	for c, e := range p.dcrt {
		dcrt[c] = e
	}
	nrt := make(map[model.ClusterID][]model.NodeID, len(p.nrt))
	for cl, nodes := range p.nrt {
		nrt[cl] = append([]model.NodeID(nil), nodes...)
	}
	// The bootstrap node also learns about the joiner.
	p.sys.net.Send(p.addr, from, JoinReplyMsg{DCRT: dcrt, NRT: nrt})
}

// handleJoinReply installs the bootstrap metadata and publishes the
// joiner's contributions (step 2 of §6.3).
func (p *Peer) handleJoinReply(m JoinReplyMsg) {
	for c, e := range m.DCRT {
		protocol.MergeEntry(p.dcrt, c, e)
	}
	for cl, nodes := range m.NRT {
		for _, n := range nodes {
			p.rememberNode(cl, n)
		}
	}
	contributed := p.sys.inst.Nodes[p.id].Contributed
	if len(contributed) == 0 {
		// Free rider: dummy publish to be added to a cluster and keep
		// receiving metadata updates.
		p.startPublish(dummyDocID, dummyCategory, true)
		return
	}
	for _, d := range contributed {
		if err := p.sys.Publish(p.id, d); err != nil {
			// Unknown docs indicate a caller bug; surface loudly.
			panic(err)
		}
	}
}

// Sentinels for the free rider dummy publish: the doc id is never stored,
// and receivers skip DCRT creation for the dummy category.
const (
	dummyDocID    = catalog.DocID(-2)
	dummyCategory = catalog.NoCategory
)

// Leave runs the §6.3 departure path: node n tells its cluster mates which
// documents leave with it, then goes offline.
func (s *System) Leave(n model.NodeID) {
	p := s.peers[n]
	docs := make([]catalog.DocID, 0, len(p.dt))
	for di := range p.dt {
		docs = append(docs, di)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	for _, cl := range p.clusters {
		for _, nb := range p.neighbors(cl) {
			s.net.Send(p.addr, int(nb), LeaveMsg{Node: n, Docs: docs})
		}
	}
	s.net.Kill(p.addr)
}

// handleLeave updates membership metadata and adopts orphaned documents
// when this peer is the leaver's successor in its own view ("additional
// steps ... e.g., to create an additional copy of documents whose
// desirable replication degree is to be violated", §6.3). The message is
// re-flooded once to the peer's own cluster neighbors so the whole
// cluster reorganizes progressively, not just the leaver's direct
// neighbors.
func (p *Peer) handleLeave(m LeaveMsg) {
	if p.seenLeaves == nil {
		p.seenLeaves = make(map[model.NodeID]bool)
	}
	if p.seenLeaves[m.Node] {
		return
	}
	p.seenLeaves[m.Node] = true
	for _, cl := range p.clusters {
		for _, nb := range p.neighbors(cl) {
			if nb != m.Node {
				p.sys.net.Send(p.addr, int(nb), m)
			}
		}
	}
	// A super peer scrubs the departed member from its cluster index.
	if p.index != nil {
		p.index.dropNode(m.Node, func(d catalog.DocID) catalog.CategoryID {
			return p.sys.inst.Catalog.Doc(d).Categories[0]
		})
	}
	for cl, list := range p.nrt {
		out := list[:0]
		for _, n := range list {
			if n != m.Node {
				out = append(out, n)
			}
		}
		p.nrt[cl] = out
	}
	for _, di := range m.Docs {
		doc := p.sys.inst.Catalog.Doc(di)
		if doc == nil || p.Stores(di) {
			continue
		}
		cl := p.routeCategory(doc.Categories[0]).Cluster
		if !p.inCluster(cl) {
			continue
		}
		if p.isSuccessorOf(m.Node, cl) {
			p.store(di)
		}
	}
}

// isSuccessorOf reports whether this peer believes it is the next node
// after leaver (by id, wrapping) among the cluster members it knows.
// Different peers hold different views, so several peers may adopt the
// same orphan — extra replicas are harmless; zero adopters are not.
func (p *Peer) isSuccessorOf(leaver model.NodeID, cl model.ClusterID) bool {
	succ := model.NodeID(-1)
	min := model.NodeID(-1)
	consider := func(n model.NodeID) {
		if n == leaver {
			return
		}
		if min == -1 || n < min {
			min = n
		}
		if n > leaver && (succ == -1 || n < succ) {
			succ = n
		}
	}
	consider(p.id)
	for _, n := range p.neighbors(cl) {
		consider(n)
	}
	if succ == -1 {
		succ = min
	}
	return succ == p.id
}
