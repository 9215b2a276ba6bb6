package protocol

import (
	"sort"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// Holder is one node's stake in a category: the documents of it that
// Node holds, in the order it answers them.
type Holder struct {
	Node model.NodeID
	Docs []catalog.DocID
}

// View is a node's view of one category's holders, in ascending Node
// order, computed from the placement every node of a deployment shares
// (§4.3.3). Placed counts the distinct documents they hold.
type View struct {
	Holders []Holder
	Placed  int
}

// Target is how many documents a query for m of them gathers:
// min(m, v.Placed). The query is done when it holds that many.
func (v View) Target(m int) int { return min(m, v.Placed) }

// Forward runs §3.3's "until m results or cluster exhausted" at self,
// asked of the placement (serve-or-redirect, arXiv:cs/0209023). It calls
// ask for each node self sends query m to, and reports whether self
// answers from held, its documents of the category in answer order. v is
// self's view of the category; addressable reports whether a node can be
// sent to. A copy carries m.Want unchanged.
//
// Every member of a cluster stores the category's hot set, so holders'
// stores overlap, and a residual passed from holder to holder would
// count the same hot documents twice. The entry member therefore decides
// alone who answers, against the target T = v.Target(m.Want):
//   - it answers alone when it holds T documents;
//   - otherwise it asks one holder of at least T documents and does not
//     answer: the first addressable one after self in id order,
//     wrapping around, a fixed successor that keeps an entry's traffic
//     for a category on one link;
//   - otherwise it answers and asks a greedy cover: each round, the
//     addressable holder adding the most documents not yet answered,
//     ties to the first in successor order, until the answers reach T.
//
// A non-entry recipient answers and asks nobody, unless it holds
// nothing: a stale view named it, and it passes the query on to its own
// successor holder of T documents. Such a chain ends once m.Hops exceeds
// the number of holders, so no node needs to remember a query it ran.
func Forward(self model.NodeID, m QueryMsg, held []catalog.DocID, v View, addressable func(model.NodeID) bool, ask func(model.NodeID)) (answers bool) {
	t, hs := v.Target(m.Want), v.Holders
	if m.Entry && len(held) >= t || !m.Entry && (len(held) > 0 || m.Hops > len(hs)) {
		return len(held) > 0
	}
	next := sort.Search(len(hs), func(i int) bool { return hs[i].Node > self })
	for i := range hs {
		if h := hs[(next+i)%len(hs)]; h.Node != self && len(h.Docs) >= t && addressable(h.Node) {
			ask(h.Node)
			return false
		}
	}
	if !m.Entry {
		return false
	}
	// Here self and every holder it may ask hold fewer than T ≤ m.Want
	// documents, so each answers all it holds.
	got := make(map[catalog.DocID]bool, t)
	for _, d := range held {
		got[d] = true
	}
	for len(got) < t {
		best, gain := -1, 0
		for i := range hs {
			j := (next + i) % len(hs)
			if hs[j].Node == self || !addressable(hs[j].Node) {
				continue
			}
			g := 0
			for _, d := range hs[j].Docs {
				if !got[d] {
					g++
				}
			}
			if g > gain {
				best, gain = j, g
			}
		}
		if best < 0 {
			break
		}
		for _, d := range hs[best].Docs {
			got[d] = true
		}
		ask(hs[best].Node)
	}
	return len(held) > 0
}
