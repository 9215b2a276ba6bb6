package livenet

// holderView is a node's view of who holds each category's documents —
// the placement view protocol.Forward routes every query with. Every
// node of a deployment computes the same placement, so the view is built
// once (Launch, StartNode) from exactly the documents the nodes are
// primed with, and every node of a launched cluster aliases that one
// immutable base, the way the address book shares its base (book.go). A
// move replaces the moved category's entry in a node-private overlay.
//
// Concurrency contract: every writer holds routeMu.Lock; shards and
// callers read under routeMu.RLock.

import (
	"sort"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

type holderView struct {
	base  []protocol.View                      // shared, immutable; indexed by category
	moved map[catalog.CategoryID]protocol.View // node-private entries of moved categories
}

// buildHolders computes every category's view, holders ascending by
// node, from what each node k is primed with (stored(k)), listing each
// document once per node in the order storeDoc files it, and counting
// it once in Placed.
func buildHolders(inst *model.Instance, stored func(k int) []catalog.DocID) []protocol.View {
	view := make([]protocol.View, len(inst.Catalog.Cats))
	counted := make([]int, len(inst.Catalog.Docs)) // 1 + the last node that counted the document
	for k := range inst.Nodes {
		for _, d := range stored(k) {
			if counted[d] == k+1 {
				continue
			}
			cat := inst.Catalog.Doc(d).Categories[0]
			v := &view[cat]
			if counted[d] == 0 {
				v.Placed++
			}
			counted[d] = k + 1
			if hs := v.Holders; len(hs) > 0 && hs[len(hs)-1].Node == model.NodeID(k) {
				hs[len(hs)-1].Docs = append(hs[len(hs)-1].Docs, d)
			} else {
				v.Holders = append(hs, protocol.Holder{Node: model.NodeID(k), Docs: []catalog.DocID{d}})
			}
		}
	}
	return view
}

// of returns cat's view, empty when the view names no holder.
func (v *holderView) of(cat catalog.CategoryID) protocol.View {
	if cv, ok := v.moved[cat]; ok {
		return cv
	}
	if int(cat) < len(v.base) {
		return v.base[cat]
	}
	return protocol.View{}
}

// move makes cat's entry the holders of share, the moved category's
// placement in its new cluster.
func (v *holderView) move(cat catalog.CategoryID, share map[model.NodeID][]catalog.DocID) {
	var cv protocol.View
	placed := make(map[catalog.DocID]bool)
	for k, docs := range share {
		if len(docs) > 0 {
			cv.Holders = append(cv.Holders, protocol.Holder{Node: k, Docs: docs})
		}
		for _, d := range docs {
			placed[d] = true
		}
	}
	sort.Slice(cv.Holders, func(i, j int) bool { return cv.Holders[i].Node < cv.Holders[j].Node })
	cv.Placed = len(placed)
	if v.moved == nil {
		v.moved = make(map[catalog.CategoryID]protocol.View)
	}
	v.moved[cat] = cv
}
