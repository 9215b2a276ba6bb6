package protocol

import (
	"slices"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// holder builds a Holder of node holding docs.
func holder(node model.NodeID, docs ...catalog.DocID) Holder { return Holder{Node: node, Docs: docs} }

// docs builds a document list.
func docs(ids ...catalog.DocID) []catalog.DocID { return ids }

func TestForward(t *testing.T) {
	const self = 5
	// Documents 1–8 placed; node 5 holds four of them, node 3 nothing
	// node 2 does not.
	view := View{Holders: []Holder{holder(2, 1, 2, 3), holder(3, 1, 2), holder(5, 1, 4, 5, 6), holder(7, 7), holder(9, 7, 8)}, Placed: 8}
	all := func(model.NodeID) bool { return true }
	entry := func(want int) QueryMsg { return QueryMsg{Want: want, Hops: 1, Entry: true} }
	relayed := func(want, hops int) QueryMsg { return QueryMsg{Want: want, Hops: hops} }
	mine := docs(1, 4, 5, 6)

	for _, tc := range []struct {
		name        string
		self        model.NodeID
		m           QueryMsg
		held        []catalog.DocID
		view        View
		addressable func(model.NodeID) bool
		answers     bool
		ask         []model.NodeID
	}{
		{"entry holds the target: it answers alone", self, entry(1), mine, view, all, true, nil},
		{"entry holding m > 1 documents answers alone", self, entry(3), mine, view, all, true, nil},
		{"entry without a match asks its successor", self, entry(1), nil, view, all, false, []model.NodeID{7}},
		{"successor must hold the target", self, entry(2), nil, view, all, false, []model.NodeID{9}},
		{"a partial match asks a holder of the whole target", self, entry(2), docs(1), view, all, false, []model.NodeID{9}},
		{"successor wraps around", self, entry(3), nil, view, all, false, []model.NodeID{2}},
		{"wrap from above every id", self, entry(1), nil, View{Holders: []Holder{holder(1, 1), holder(3, 2)}, Placed: 2}, all, false, []model.NodeID{1}},
		{"unaddressable holders are skipped", self, entry(1), nil, view,
			func(id model.NodeID) bool { return id != 7 && id != 9 }, false, []model.NodeID{2}},
		{"empty category: nothing to ask", self, entry(1), nil, View{}, all, false, nil},
		{"target capped by Placed lets a full holder answer", self, entry(20), docs(1, 2, 3, 4, 5, 6, 7, 8), view, all, true, nil},

		{"cover: largest gain first, ties in successor order", self, entry(8), mine, view, all, true, []model.NodeID{9, 2}},
		{"cover stops at the target", self, entry(5), mine, view, all, true, []model.NodeID{9}},
		{"cover above the placement", self, entry(20), mine, view, all, true, []model.NodeID{9, 2}},
		{"a holder adding nothing is not asked", 2, entry(8), docs(1, 2, 3), view, all, true, []model.NodeID{5, 9}},
		{"a published document counts too", 7, entry(7), docs(40), view, all, true, []model.NodeID{5, 9}},
		{"cover skips unaddressable holders", self, entry(8), mine, view,
			func(id model.NodeID) bool { return id != 9 }, true, []model.NodeID{2, 7}},
		{"no addressable holder: the entry answers what it holds", self, entry(8), mine, view,
			func(model.NodeID) bool { return false }, true, nil},
		{"only self in the view", self, entry(2), nil, View{Holders: []Holder{holder(self, 1, 2)}, Placed: 2}, all, false, nil},

		{"recipient with documents answers alone", self, relayed(4, 2), docs(1), view, all, true, nil},
		{"stale recipient redirects to its successor", self, relayed(1, 2), nil, view, all, false, []model.NodeID{7}},
		{"stale redirect needs a holder of the target", self, relayed(3, 3), nil, view, all, false, []model.NodeID{2}},
		{"a chain ends after one visit per holder", self, relayed(1, 6), nil, view, all, false, nil},
		{"stale recipient with no successor stops", self, relayed(5, 2), nil, view, all, false, nil},
	} {
		var ask []model.NodeID
		answers := Forward(tc.self, tc.m, tc.held, tc.view, tc.addressable, func(id model.NodeID) { ask = append(ask, id) })
		if answers != tc.answers || !slices.Equal(ask, tc.ask) {
			t.Errorf("%s: Forward answers %v and asks %v, want %v and %v", tc.name, answers, ask, tc.answers, tc.ask)
		}
	}
}

func TestViewTarget(t *testing.T) {
	v := View{Placed: 3}
	for m, want := range map[int]int{1: 1, 3: 3, 5: 3} {
		if got := v.Target(m); got != want {
			t.Errorf("Target(%d) = %d, want %d", m, got, want)
		}
	}
	if got := (View{}).Target(4); got != 0 {
		t.Errorf("empty category: Target(4) = %d, want 0", got)
	}
}
