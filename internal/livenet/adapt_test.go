package livenet

import (
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// TestCorruptAdaptationFramesFailSafe injects adaptation messages a
// corrupt frame or a peer with a different catalog shape could produce —
// out-of-range category ids inside load maps, an out-of-range cluster
// id, moves to nonexistent clusters, and a move counter near max-uint64
// — and checks the node drops them all (counted), keeps its DCRT
// intact, keeps its event loop alive, and still accepts a legitimate
// move afterwards (the huge counter must not wedge the category).
func TestCorruptAdaptationFramesFailSafe(t *testing.T) {
	sh := churnShape()
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Launch(inst, assign, place, Options{Seed: sh.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An hour-long epoch: the clock never fires during the test, so the
	// only adaptation traffic is what the test injects.
	c.EnableAdaptation(AdaptConfig{Interval: time.Hour})

	n := c.Nodes[0]
	victim := catalog.CategoryID(-1)
	for cat, cl := range assign {
		if cl == 0 {
			victim = catalog.CategoryID(cat)
			break
		}
	}
	if victim == -1 {
		t.Fatal("no category assigned to cluster 0 in this shape")
	}

	inject := func(msg any) {
		select {
		case n.inbox <- envelope{From: 1, Msg: msg}:
		case <-time.After(time.Second):
			t.Fatal("inbox blocked")
		}
	}

	// Out-of-range categories inside a load frame (two in Hits, one in
	// Units), an out-of-range cluster id, moves with a bad category, a
	// bad cluster, and an implausible counter jump, and a gossiped
	// metadata update for a category outside the catalog.
	inject(wire.LeaderLoad{Epoch: 1, Cluster: 0, Aggregated: true,
		Hits:  map[catalog.CategoryID]int64{-4: 10, 9999: 3, victim: 1},
		Units: map[catalog.CategoryID]float64{-1: 2},
	})
	inject(wire.LeaderLoad{Epoch: 1, Cluster: 99})
	inject(wire.Move{Category: -3, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}})
	inject(wire.Move{Category: victim, Entry: protocol.DCRTEntry{Cluster: 99, MoveCounter: 1}})
	inject(wire.Move{Category: victim, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: ^uint64(0)}})
	inject(protocol.MetadataUpdateMsg{Entries: map[catalog.CategoryID]protocol.DCRTEntry{
		7777: {Cluster: 1, MoveCounter: 2},
	}})

	waitFor(t, 5*time.Second, "bad frames counted", func() bool {
		s := n.Stats()
		return s["adapt_bad_categories"] == 3 &&
			s["adapt_bad_moves"] == 4 &&
			s["adapt_dropped_loads"] == 1
	})

	// The event loop survived and the DCRT is untouched.
	readEntry := func() protocol.DCRTEntry {
		ch := make(chan protocol.DCRTEntry, 1)
		n.cmds <- func(n *Node) { ch <- n.dcrt[victim] }
		return <-ch
	}
	if e := readEntry(); e.Cluster != 0 || e.MoveCounter != 0 {
		t.Fatalf("corrupt frames changed the DCRT: %+v", e)
	}

	// A legitimate move still applies afterwards.
	inject(wire.Move{Category: victim, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}})
	waitFor(t, 5*time.Second, "legitimate move applied", func() bool {
		e := readEntry()
		return e.Cluster == 1 && e.MoveCounter == 1
	})
}
