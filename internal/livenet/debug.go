package livenet

import (
	"net"
	"time"
)

// Introspection and injection seams for the chaos harness
// (internal/chaos, cmd/p2pchaos): a replaceable dialer, and snapshot
// accessors for the bounded-table invariants the soak runner checks
// between fault injections.

// SetDialer replaces the node's outbound dial function — the injection
// point for fault middleware and tests. Streams already established
// keep their connection; new dials (including reconnects) go through
// the replacement. Safe to call at any time.
func (n *Node) SetDialer(dial func(addr string) (net.Conn, error)) {
	n.tr.setDial(dial)
}

// tables counts the shard's pending queries, and those more than slack
// past their deadline: its contribution to TableSizes / OverduePending.
func (s *engineShard) tables(slack time.Duration) (pending, overdue int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	for _, pq := range s.pending {
		if now.After(pq.deadline.Add(slack)) {
			overdue++
		}
	}
	return len(s.pending), overdue
}

// TableSizes snapshots the sizes of every state table that must stay
// bounded on a long-lived node: the pending query table (summed across
// every engine shard), address book, NRT entries (across clusters),
// membership tombstones, and the requester-cache category index. The
// soak runner asserts bounds on these under churn and partitions; a
// blocked call (routeMu or a shard lock never released) is itself an
// invariant violation the caller detects by timeout. The shard tables
// are read before routeMu is taken: nothing under routeMu.Lock may take
// a shard lock. Returns nil once the node has shut down.
func (n *Node) TableSizes() map[string]int {
	sizes := map[string]int{"pending": 0}
	for _, s := range n.shards {
		pending, _ := s.tables(0)
		sizes["pending"] += pending
	}
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if n.closed() {
		return nil
	}
	sizes["book"] = n.book.len()
	nrt := 0
	for _, members := range n.nrt {
		nrt += len(members)
	}
	sizes["nrt"] = nrt
	if n.det != nil {
		sizes["tombstones"] = len(n.det.Tombstones())
	}
	if cs := n.cacheSt.Load(); cs != nil {
		sizes["cache_index"] = cs.indexSize()
	} else {
		sizes["cache_index"] = 0
	}
	return sizes
}

// OverduePending counts pending queries, across all shards, that
// outlived their deadline by more than slack — entries the sweeps
// should have reaped. Anything non-zero means a query slot leaked past
// its expiry (a stuck query), one of the chaos harness's core
// invariants.
func (n *Node) OverduePending(slack time.Duration) int {
	overdue := 0
	for _, s := range n.shards {
		_, o := s.tables(slack)
		overdue += o
	}
	return overdue
}
