// Package protocol is the paper's protocol stated once, for both drivers:
// the simulated overlay (package overlay, on simnet) and the live node
// (package livenet, on sockets). It owns the vocabulary the two share
// (the DCRT row and the query/result/publish/ack/metadata messages), the
// in-cluster forwarding rule of a query (Forward), the §6.1.2
// move-counter merge rule, the measured cluster load with its
// normalized-popularity convention, and phases 3–4 of the adaptation —
// fairness over the loads a leader heard, then MaxFair_Reassign on the
// state rebuilt from those measurements.
//
// Like package membership it is sans-I/O: no clock, no randomness, no
// network, no goroutines. Every function maps its arguments to a result;
// the drivers own time, liveness, transport and the side effects of a
// decision.
package protocol

import (
	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// Wire-size model: every message pays a fixed header; payloads are
// estimated per field. The simulator only uses sizes for traffic
// accounting (e.g. the rebalancing-transfer experiment), so rough byte
// costs suffice. The live codec (package wire) has its own exact layout.
const (
	HeaderBytes   = 64
	PerIDBytes    = 8
	PerEntryBytes = 16
)

// The paper's contact counts, shared by the simulated overlay and the
// live node.
const (
	// RemoteContacts is how many members of each foreign cluster a node
	// keeps in its NRT at bootstrap, for query routing.
	RemoteContacts = 3
	// PublishFanout is how many members of the serving cluster a publish
	// is sent to (§6.2).
	PublishFanout = 3
)

// DCRTEntry is one Document Category Routing Table row: the cluster
// currently serving a category, versioned by a move counter so concurrent
// metadata updates resolve to the newest move (§6.1.2 conflict
// resolution).
type DCRTEntry struct {
	Cluster model.ClusterID
	// MoveCounter increments every time the category is reassigned; the
	// entry with the highest counter wins a merge.
	MoveCounter uint64
}

// QueryMsg implements the paper's §3.3 query: the requesting node resolved
// keywords to a category, looked up the cluster in its DCRT, and sent the
// query to a random cluster node from its NRT. Within the cluster the
// live engine sends it where Forward says; the simulated overlay floods
// it while Want results are missing.
type QueryMsg struct {
	ID       uint64
	Category catalog.CategoryID
	// Want is m. The live engine forwards it unchanged; the simulator's
	// flood lowers it to what its branch still seeks.
	Want int
	// Origin is the requesting node, which results flow back to.
	Origin model.NodeID
	// Hops counts forwarding steps so far.
	Hops int
	// Entry marks the first delivery into the serving cluster (set by
	// the origin and by cross-cluster forwarding, cleared on every
	// in-cluster forward). The receiving node counts the request in its
	// per-category hit counter exactly once per cluster entry, so the
	// §6.1.2 monitoring counters estimate category demand rather than
	// how many members the query reached.
	Entry bool
}

// Kind implements simnet.Message.
func (QueryMsg) Kind() string { return "query" }

// Size implements simnet.Message.
func (QueryMsg) Size() int64 { return HeaderBytes + 4*PerIDBytes }

// ResultMsg returns matching document ids straight to the query origin.
type ResultMsg struct {
	ID   uint64
	Docs []catalog.DocID
	// Hops is the forwarding distance of the answering node.
	Hops int
	// From is the answering node (for load accounting at the origin). The
	// live wire does not carry it: a decoded result's From is its sender.
	From model.NodeID
}

// Kind implements simnet.Message.
func (ResultMsg) Kind() string { return "result" }

// Size implements simnet.Message.
func (m ResultMsg) Size() int64 { return HeaderBytes + int64(len(m.Docs))*PerIDBytes }

// PublishMsg announces a new document to the cluster believed to host its
// category (§6.2 publish protocol).
type PublishMsg struct {
	Doc      catalog.DocID
	Category catalog.CategoryID
	// Publisher is the publishing node. The live wire does not carry it:
	// a decoded publish's Publisher is its sender.
	Publisher model.NodeID
	// Dummy marks a free rider's no-content publish (§6.3 join protocol),
	// which only subscribes the node to metadata updates. Simulator only:
	// the live wire does not carry it.
	Dummy bool
}

// Kind implements simnet.Message.
func (PublishMsg) Kind() string { return "publish" }

// Size implements simnet.Message.
func (PublishMsg) Size() int64 { return HeaderBytes + 3*PerIDBytes }

// PublishAckMsg is the receiver's reply: its DCRT entry for the category
// (so a stale publisher learns about moves) and an NRT sample.
type PublishAckMsg struct {
	Doc      catalog.DocID
	Category catalog.CategoryID
	// Entry is the receiver's current DCRT entry for Category.
	Entry DCRTEntry
	// Accepted is true when the receiver serves the category's cluster.
	// Simulator only: the live wire does not carry it.
	Accepted bool
	// Members samples the receiver's NRT for the category's cluster.
	Members []model.NodeID
}

// Kind implements simnet.Message.
func (PublishAckMsg) Kind() string { return "publish-ack" }

// Size implements simnet.Message.
func (m PublishAckMsg) Size() int64 {
	return HeaderBytes + 3*PerIDBytes + int64(len(m.Members))*PerIDBytes
}

// MetadataUpdateMsg propagates DCRT changes epidemically in the
// simulated overlay (§6.1.2 lazy rebalancing, step 5). Receivers keep
// the entry with the highest move counter per category. The live node
// carries the same rows on its failure detector's probes instead
// (membership.Move).
type MetadataUpdateMsg struct {
	Entries map[catalog.CategoryID]DCRTEntry
}

// Categories lists the update's categories in ascending order, the order
// receivers merge them in so a run is reproducible.
func (m MetadataUpdateMsg) Categories() []catalog.CategoryID { return sortedKeys(m.Entries) }

// Kind implements simnet.Message.
func (MetadataUpdateMsg) Kind() string { return "metadata-update" }

// Size implements simnet.Message.
func (m MetadataUpdateMsg) Size() int64 { return HeaderBytes + int64(len(m.Entries))*PerEntryBytes }
