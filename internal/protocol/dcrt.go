package protocol

import (
	"p2pshare/internal/catalog"
)

// maxMoveCounterJump bounds how far ahead of the local view a received
// move counter may be. Counters advance by one per executed move, so a
// legitimate gap is at most the moves this node missed; a counter near
// max-uint64 from a corrupt or hostile frame would otherwise wedge the
// category forever (no legitimate move could ever exceed it again).
const maxMoveCounterJump = 1 << 20

// Merge reports what MergeEntry did with one received DCRT entry.
type Merge struct {
	// Changed is true when the entry replaced the table's row.
	Changed bool
	// Rejected is true when the entry was implausible rather than merely
	// stale: a move counter beyond the jump window. The table is
	// untouched.
	Rejected bool
	// Prev is the row the table held before the merge; Known is false
	// when it held none (Prev is then the zero entry).
	Prev  DCRTEntry
	Known bool
}

// MergeEntry folds one received DCRT entry into a routing table under the
// §6.1.2 conflict-resolution rule: the higher move counter wins, an equal
// or lower one leaves the table alone. A counter more than
// maxMoveCounterJump ahead of the local row (the zero row for a category
// never seen, so first contact is bounded by the same window) is
// rejected. The category and cluster are the caller's to trust: the live
// decoder admits only ids of the deployment (package wire's Bounds).
func MergeEntry(dcrt map[catalog.CategoryID]DCRTEntry, cat catalog.CategoryID, e DCRTEntry) Merge {
	old, known := dcrt[cat]
	m := Merge{Prev: old, Known: known}
	switch {
	case known && e.MoveCounter <= old.MoveCounter:
	case e.MoveCounter > old.MoveCounter+maxMoveCounterJump:
		m.Rejected = true
	default:
		dcrt[cat] = e
		m.Changed = true
	}
	return m
}
