package livenet

import "time"

// Introspection seams for the chaos soak (internal/chaos/soak): snapshot
// accessors for the bounded-table invariants it checks between fault
// injections. Faults are injected at birth, through Options.Hooks.Dial.

// TableSizes snapshots the sizes of every state table that must stay
// bounded on a long-lived node: the pending query table, address book,
// NRT entries (across clusters), membership tombstones, and the
// requester-cache category index. The soak runner asserts bounds on
// these under churn and partitions; a blocked call (routeMu or the
// query table's lock never released) is itself an invariant violation
// the caller detects by timeout. The query table is read before routeMu
// is taken: nothing under routeMu.Lock may take its lock. Returns nil
// once the node has shut down.
func (n *Node) TableSizes() map[string]int {
	pending, _ := n.tables(0)
	sizes := map[string]int{"pending": pending}
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
	if cs := n.cacheSt; cs != nil {
		sizes["cache_index"] = cs.indexSize()
	} else {
		sizes["cache_index"] = 0
	}
	return sizes
}

// OverduePending counts pending queries that outlived their deadline by
// more than slack — entries the sweep should have reaped. Anything
// non-zero means a query slot leaked past its expiry (a stuck query),
// one of the chaos harness's core invariants.
func (n *Node) OverduePending(slack time.Duration) int {
	_, overdue := n.tables(slack)
	return overdue
}
