package livenet

// holderView is a node's view of who holds each category's documents —
// the placement view protocol.Forward directs an entry member's query
// with. Every node of a deployment computes the same placement, so the
// view is built once (Launch, StartNode) from exactly the documents the
// nodes are primed with, and every node of a launched cluster aliases
// that one immutable base, the way the address book shares its base
// (book.go). A move replaces the moved category's entry in a
// node-private overlay.
//
// Concurrency contract: the control loop is the sole writer and holds
// routeMu.Lock; shards read under routeMu.RLock.

import (
	"sort"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

type holderView struct {
	base  [][]protocol.Holder                      // shared, immutable; indexed by category
	moved map[catalog.CategoryID][]protocol.Holder // node-private entries of moved categories
}

// buildHolders computes every category's holder list, ascending by node,
// from what each node k is primed with (stored(k)), counting each
// document once per node as storeDoc does.
func buildHolders(inst *model.Instance, stored func(k int) []catalog.DocID) [][]protocol.Holder {
	view := make([][]protocol.Holder, len(inst.Catalog.Cats))
	counted := make([]int, len(inst.Catalog.Docs)) // 1 + the last node that counted the document
	for k := range inst.Nodes {
		for _, d := range stored(k) {
			if counted[d] == k+1 {
				continue
			}
			counted[d] = k + 1
			cat := inst.Catalog.Doc(d).Categories[0]
			if hs := view[cat]; len(hs) > 0 && hs[len(hs)-1].Node == model.NodeID(k) {
				hs[len(hs)-1].Docs++
			} else {
				view[cat] = append(hs, protocol.Holder{Node: model.NodeID(k), Docs: 1})
			}
		}
	}
	return view
}

// of returns the holders of cat, nil when the view names none.
func (v *holderView) of(cat catalog.CategoryID) []protocol.Holder {
	if hs, ok := v.moved[cat]; ok {
		return hs
	}
	if int(cat) < len(v.base) {
		return v.base[cat]
	}
	return nil
}

// move replaces cat's entry with the holders of share, the moved
// category's placement in its new cluster. A nil share — a node that
// cannot compute the placement — empties the entry, so the category
// floods.
func (v *holderView) move(cat catalog.CategoryID, share map[model.NodeID][]catalog.DocID) {
	var hs []protocol.Holder
	for k, docs := range share {
		if len(docs) > 0 {
			hs = append(hs, protocol.Holder{Node: k, Docs: len(docs)})
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Node < hs[j].Node })
	if v.moved == nil {
		v.moved = make(map[catalog.CategoryID][]protocol.Holder)
	}
	v.moved[cat] = hs
}
