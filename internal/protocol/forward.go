package protocol

import (
	"sort"

	"p2pshare/internal/model"
)

// Holder is one node's stake in a category: it holds Docs of the
// category's documents. A holder view lists a category's holders in
// ascending Node order, computed from the deterministic placement every
// node of a deployment shares (§4.3.3).
type Holder struct {
	Node model.NodeID
	Docs int
}

// Route is where a node sends the residual of a query it ran.
type Route struct {
	// Want is the residual demand; zero means the query is settled and
	// nothing is sent.
	Want int
	// Direct sends the residual to To alone. Otherwise it floods every
	// NRT neighbour in the serving cluster, leaving out the frame's
	// sender when SkipSender is set.
	Direct     bool
	To         model.NodeID
	SkipSender bool
}

// Forward decides where self sends the residual of query m after
// matching `matched` of its documents locally. holders is self's holder
// view of m.Category and addressable reports whether a node can be sent
// to.
//
// The entry member (m.Entry) that matched nothing sends the query to one
// holder of at least Want documents: the first addressable one after
// self in member-id order, wrapping around — a fixed successor, so an
// entry's directed traffic stays on one link per category (§3.3's
// "until m results" asked of the placement, the directed ask of
// serve-or-redirect, arXiv:cs/0209023). Every other case floods the
// serving cluster: a partial match at the entry, an empty or
// insufficient view, and every non-entry hop — which leaves its sender
// out, since the sender ran the query already. The entry hop keeps its
// sender, the origin, which never ran the query as a member and may be
// one. A directed holder whose store turns out stale runs a non-entry
// frame and so floods from where it sits.
func Forward(self model.NodeID, m QueryMsg, matched int, holders []Holder, addressable func(model.NodeID) bool) Route {
	r := Route{Want: m.Want - matched, SkipSender: !m.Entry}
	if r.Want <= 0 {
		return Route{}
	}
	if !m.Entry || matched > 0 {
		return r
	}
	// Scan from the first holder with an id above self, wrapping around.
	next := sort.Search(len(holders), func(i int) bool { return holders[i].Node > self })
	for i := range holders {
		h := holders[(next+i)%len(holders)]
		if h.Node != self && h.Docs >= r.Want && addressable(h.Node) {
			r.Direct, r.To = true, h.Node
			return r
		}
	}
	return r
}
