package protocol

import (
	"testing"

	"p2pshare/internal/model"
)

func TestForward(t *testing.T) {
	const self = 5
	view := []Holder{{Node: 2, Docs: 3}, {Node: 5, Docs: 4}, {Node: 7, Docs: 1}, {Node: 9, Docs: 2}}
	all := func(model.NodeID) bool { return true }
	entry := func(want int) QueryMsg { return QueryMsg{Want: want, Entry: true} }
	flood := func(want int) Route { return Route{Want: want} }
	direct := func(want int, to model.NodeID) Route { return Route{Want: want, Direct: true, To: to} }

	for _, tc := range []struct {
		name        string
		m           QueryMsg
		matched     int
		view        []Holder
		addressable func(model.NodeID) bool
		want        Route
	}{
		{"entry matched: nothing to send", entry(1), 1, view, all, Route{}},
		{"entry without a match asks its successor", entry(1), 0, view, all, direct(1, 7)},
		{"successor must hold Want documents", entry(2), 0, view, all, direct(2, 9)},
		{"successor wraps around", entry(3), 0, view, all, direct(3, 2)},
		{"wrap from above every id", entry(1), 0, []Holder{{Node: 1, Docs: 1}, {Node: 3, Docs: 1}}, all, direct(1, 1)},
		{"self is skipped", entry(4), 0, view, all, flood(4)},
		{"only self in the view", entry(1), 0, []Holder{{Node: self, Docs: 9}}, all, flood(1)},
		{"unaddressable holders are skipped", entry(1), 0, view,
			func(id model.NodeID) bool { return id != 7 && id != 9 }, direct(1, 2)},
		{"no addressable holder", entry(1), 0, view, func(model.NodeID) bool { return false }, flood(1)},
		{"no holder has Want documents", entry(5), 0, view, all, flood(5)},
		{"empty view", entry(1), 0, nil, all, flood(1)},
		{"m = 2 with one local match floods the residual", entry(2), 1, view, all, flood(1)},
		{"non-entry frame floods minus the sender", QueryMsg{Want: 1}, 0, view, all, Route{Want: 1, SkipSender: true}},
		{"non-entry partial match", QueryMsg{Want: 3}, 1, view, all, Route{Want: 2, SkipSender: true}},
		{"non-entry match settles", QueryMsg{Want: 1}, 1, view, all, Route{}},
	} {
		if got := Forward(self, tc.m, tc.matched, tc.view, tc.addressable); got != tc.want {
			t.Errorf("%s: Forward = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
