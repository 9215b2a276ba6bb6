package protocol

import (
	"p2pshare/internal/catalog"
)

// MaxVersionJump bounds how far ahead of the local view a received
// version counter may be: a DCRT row's move counter here, a member's
// incarnation in package membership. Both advance by one per event (a
// move, a refutation or a rejoin), so a legitimate gap is at most the
// events this node missed; a counter near max-uint64 from a corrupt or
// hostile frame would otherwise wedge the fact forever (no legitimate
// event could ever exceed it again).
const MaxVersionJump = 1 << 20

// PlausibleVersion reports whether a received version counter got lies
// within MaxVersionJump of have, the local view's (zero for a fact never
// seen, so first contact is bounded by the same window). A counter at or
// below have is plausible: merely stale.
func PlausibleVersion(have, got uint64) bool {
	return got <= have || got-have <= MaxVersionJump
}

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
// or lower one leaves the table alone. An implausible counter (not
// PlausibleVersion against the local row, the zero row for a category
// never seen) is rejected. The category and cluster are the caller's to
// trust: the live decoder admits only ids of the deployment (package
// wire's Bounds).
func MergeEntry(dcrt map[catalog.CategoryID]DCRTEntry, cat catalog.CategoryID, e DCRTEntry) Merge {
	old, known := dcrt[cat]
	m := Merge{Prev: old, Known: known}
	switch {
	case known && e.MoveCounter <= old.MoveCounter:
	case !PlausibleVersion(old.MoveCounter, e.MoveCounter):
		m.Rejected = true
	default:
		dcrt[cat] = e
		m.Changed = true
	}
	return m
}
