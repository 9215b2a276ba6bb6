package overlay

import (
	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// The wire-size model (see protocol.HeaderBytes) of the simulator-only
// messages below.
const (
	headerBytes   = protocol.HeaderBytes
	perIDBytes    = protocol.PerIDBytes
	perEntryBytes = protocol.PerEntryBytes
)

// The vocabulary shared with the live node lives in package protocol;
// the aliases keep this package's own code (and its importers) spelling
// the types as before.
type (
	DCRTEntry         = protocol.DCRTEntry
	QueryMsg          = protocol.QueryMsg
	ResultMsg         = protocol.ResultMsg
	PublishMsg        = protocol.PublishMsg
	PublishAckMsg     = protocol.PublishAckMsg
	MetadataUpdateMsg = protocol.MetadataUpdateMsg
)

// JoinRequestMsg asks a bootstrap node for its metadata (§6.3 join).
type JoinRequestMsg struct {
	Joiner model.NodeID
}

// Kind implements simnet.Message.
func (JoinRequestMsg) Kind() string { return "join-request" }

// Size implements simnet.Message.
func (JoinRequestMsg) Size() int64 { return headerBytes + perIDBytes }

// JoinReplyMsg carries the bootstrap node's DCRT and NRT.
type JoinReplyMsg struct {
	DCRT map[catalog.CategoryID]DCRTEntry
	NRT  map[model.ClusterID][]model.NodeID
}

// Kind implements simnet.Message.
func (JoinReplyMsg) Kind() string { return "join-reply" }

// Size implements simnet.Message.
func (m JoinReplyMsg) Size() int64 {
	n := int64(len(m.DCRT)) * perEntryBytes
	for _, nodes := range m.NRT {
		n += int64(len(nodes)) * perIDBytes
	}
	return headerBytes + n
}

// LeaveMsg tells cluster mates which documents disappear with the leaving
// node (§6.3).
type LeaveMsg struct {
	Node model.NodeID
	Docs []catalog.DocID
}

// Kind implements simnet.Message.
func (LeaveMsg) Kind() string { return "leave" }

// Size implements simnet.Message.
func (m LeaveMsg) Size() int64 { return headerBytes + int64(1+len(m.Docs))*perIDBytes }

// CapabilityMsg gossips node capabilities ahead of leader election
// (§6.1.1). Known aggregates the sender's current view so information
// spreads epidemically.
type CapabilityMsg struct {
	Cluster model.ClusterID
	Known   map[model.NodeID]float64
}

// Kind implements simnet.Message.
func (CapabilityMsg) Kind() string { return "capability" }

// Size implements simnet.Message.
func (m CapabilityMsg) Size() int64 { return headerBytes + int64(len(m.Known))*perEntryBytes }

// HitRequestMsg floods from the leader through the cluster, building the
// §6.1.2 phase-1 aggregation tree on the fly.
type HitRequestMsg struct {
	Epoch   uint64
	Cluster model.ClusterID
}

// Kind implements simnet.Message.
func (HitRequestMsg) Kind() string { return "hit-request" }

// Size implements simnet.Message.
func (HitRequestMsg) Size() int64 { return headerBytes + 2*perIDBytes }

// HitReplyMsg flows back up the aggregation tree. Dup marks a reply from a
// node that was already claimed by another parent (it contributes
// nothing; the parent just stops waiting for it).
type HitReplyMsg struct {
	Epoch   uint64
	Cluster model.ClusterID
	Dup     bool
	// Hits aggregates per-category request counts in the subtree.
	Hits map[catalog.CategoryID]int64
	// Units aggregates the subtree's per-category unit mass
	// u_k·p(D_s(k))/p(D(k)), so the chosen leader can rebuild the ICLB
	// state from live measurements.
	Units map[catalog.CategoryID]float64
}

// Kind implements simnet.Message.
func (HitReplyMsg) Kind() string { return "hit-reply" }

// Size implements simnet.Message.
func (m HitReplyMsg) Size() int64 {
	return headerBytes + int64(len(m.Hits)+len(m.Units))*perEntryBytes
}

// LeaderLoadMsg is the §6.1.2 phase-2 exchange: a cluster leader shares
// its cluster's measured load with the other leaders. The sender contacts
// one random node of the target cluster, which relays to its believed
// leader ("a cluster leader needs only contact one random node in every
// cluster to discover the cluster's leader").
type LeaderLoadMsg struct {
	Epoch uint64
	// Cluster is the cluster whose load this reports.
	Cluster model.ClusterID
	// Target is the cluster whose leader should receive the report.
	Target model.ClusterID
	// Relays bounds forwarding (leader views can briefly disagree).
	Relays int
	Leader model.NodeID
	// Hits and Units are the cluster-wide aggregates from phase 1.
	Hits  map[catalog.CategoryID]int64
	Units map[catalog.CategoryID]float64
}

// Kind implements simnet.Message.
func (LeaderLoadMsg) Kind() string { return "leader-load" }

// Size implements simnet.Message.
func (m LeaderLoadMsg) Size() int64 {
	return headerBytes + int64(len(m.Hits)+len(m.Units))*perEntryBytes
}

// TransferMsg is one paired source→destination document-group transfer of
// the lazy rebalancing protocol (step 2). Its Size reflects the actual
// document bytes, which is what the §6.1.3 transfer-cost experiment
// measures.
type TransferMsg struct {
	Category catalog.CategoryID
	Docs     []catalog.DocID
	Bytes    int64
}

// Kind implements simnet.Message.
func (TransferMsg) Kind() string { return "transfer" }

// Size implements simnet.Message.
func (m TransferMsg) Size() int64 { return headerBytes + m.Bytes }

// ManifestMsg announces a paired transfer (lazy rebalancing step 2): the
// source node tells its destination node which documents are coming, so
// the destination can serve queries in the meantime by fetching on demand
// (step 4). The manifest itself is tiny; the bulk bytes travel in
// TransferMsg.
type ManifestMsg struct {
	Category catalog.CategoryID
	Docs     []catalog.DocID
	Source   model.NodeID
}

// Kind implements simnet.Message.
func (ManifestMsg) Kind() string { return "manifest" }

// Size implements simnet.Message.
func (m ManifestMsg) Size() int64 { return headerBytes + int64(len(m.Docs))*perIDBytes }

// FetchMsg asks the coupling node in the source cluster for documents the
// destination node should already serve (lazy rebalancing step 4).
type FetchMsg struct {
	Category catalog.CategoryID
	Docs     []catalog.DocID
	// ForQuery, when non-zero, resumes a forwarded query after the fetch.
	ForQuery uint64
	Origin   model.NodeID
	Want     int
	Hops     int
}

// Kind implements simnet.Message.
func (FetchMsg) Kind() string { return "fetch" }

// Size implements simnet.Message.
func (m FetchMsg) Size() int64 { return headerBytes + int64(len(m.Docs))*perIDBytes }

// FetchReplyMsg returns the fetched documents (paying their byte cost).
type FetchReplyMsg struct {
	Category catalog.CategoryID
	Docs     []catalog.DocID
	Bytes    int64
	ForQuery uint64
	Origin   model.NodeID
	Want     int
	Hops     int
}

// Kind implements simnet.Message.
func (FetchReplyMsg) Kind() string { return "fetch-reply" }

// Size implements simnet.Message.
func (m FetchReplyMsg) Size() int64 { return headerBytes + m.Bytes }
