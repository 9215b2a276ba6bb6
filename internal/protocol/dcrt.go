package protocol

import (
	"slices"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// DCRTBase is a deployment's launch category→cluster assignment: the
// rows every DCRT of the deployment starts from, each at move counter 0.
// NewDCRTBase copies the assignment once per deployment; every node's
// table reads that one copy and nothing writes it.
type DCRTBase struct {
	clusters []model.ClusterID // by category; NoCluster: no row
}

// NewDCRTBase copies assign (model.NoCluster for a category with no
// serving cluster) into the base the tables of one deployment share.
func NewDCRTBase(assign []model.ClusterID) DCRTBase {
	return DCRTBase{clusters: slices.Clone(assign)}
}

// DCRT is one node's Document Category Routing Table (Figure 1): the
// deployment's shared base plus the rows this node has seen move. own
// holds every row written since launch (a move, a metadata update, a
// publish), nil until the first, and shadows the base row of its
// category; lazy rebalancing converges the tables through these rows
// alone. A lookup is a slice index while nothing has moved. The table
// has one writer at a time (the node's routing lock, the simulator's
// single thread); tables built on one base share nothing else. The
// zero DCRT is an empty table with no base.
type DCRT struct {
	base []model.ClusterID
	own  map[catalog.CategoryID]DCRTEntry
}

// NewDCRT builds a table over base with no rows of its own.
func NewDCRT(base DCRTBase) DCRT {
	return DCRT{base: base.clusters}
}

// Get returns the table's row for cat; ok is false when it has none
// (the entry is then the zero row).
func (t *DCRT) Get(cat catalog.CategoryID) (e DCRTEntry, ok bool) {
	if t.own != nil {
		if e, ok = t.own[cat]; ok {
			return e, true
		}
	}
	if uint(cat) < uint(len(t.base)) && t.base[cat] != model.NoCluster {
		return DCRTEntry{Cluster: t.base[cat]}, true
	}
	return DCRTEntry{}, false
}

// Set writes cat's row, shadowing the base's.
func (t *DCRT) Set(cat catalog.CategoryID, e DCRTEntry) {
	if t.own == nil {
		t.own = make(map[catalog.CategoryID]DCRTEntry)
	}
	t.own[cat] = e
}

// Range calls fn with every row until fn returns false: the base's
// categories in ascending order, then every other row in ascending
// order.
func (t *DCRT) Range(fn func(catalog.CategoryID, DCRTEntry) bool) {
	for c := range t.base {
		if e, ok := t.Get(catalog.CategoryID(c)); ok && !fn(catalog.CategoryID(c), e) {
			return
		}
	}
	var rest []catalog.CategoryID
	for c := range t.own {
		if uint(c) >= uint(len(t.base)) {
			rest = append(rest, c)
		}
	}
	slices.Sort(rest)
	for _, c := range rest {
		if !fn(c, t.own[c]) {
			return
		}
	}
}

// Snapshot copies every row into a fresh map: what a join reply
// carries.
func (t *DCRT) Snapshot() map[catalog.CategoryID]DCRTEntry {
	out := make(map[catalog.CategoryID]DCRTEntry)
	t.Range(func(c catalog.CategoryID, e DCRTEntry) bool {
		out[c] = e
		return true
	})
	return out
}

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
func MergeEntry(t *DCRT, cat catalog.CategoryID, e DCRTEntry) Merge {
	old, known := t.Get(cat)
	m := Merge{Prev: old, Known: known}
	switch {
	case known && e.MoveCounter <= old.MoveCounter:
	case !PlausibleVersion(old.MoveCounter, e.MoveCounter):
		m.Rejected = true
	default:
		t.Set(cat, e)
		m.Changed = true
	}
	return m
}
