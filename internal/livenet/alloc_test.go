package livenet

import (
	"context"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// allocTestNode builds a minimal node whose query hot path can run
// without any network: the transport is pre-closed, so a send resolves
// the address and the transport no-ops deterministically — what's measured
// is exactly the in-process handler work (decode-side handling, query
// table state, reply/forward construction).
func allocTestNode() *Node {
	cat := &catalog.Catalog{Docs: make([]catalog.Document, 18)}
	for d := range cat.Docs {
		cat.Docs[d] = catalog.Document{ID: catalog.DocID(d), Categories: []catalog.CategoryID{3}}
	}
	n := &Node{
		inst:  &model.Instance{Catalog: cat},
		book:  newAddrBook(),
		dcrt:  protocol.NewDCRT(protocol.NewDCRTBase([]model.ClusterID{model.NoCluster, model.NoCluster, model.NoCluster, 1})),
		byCat: map[catalog.CategoryID][]catalog.DocID{3: {10, 11, 12, 13}},
		queries: queryTable{
			pending: make(map[uint64]*pendingQuery),
			rng:     newPCG(1, 1, streamQueries),
			hits:    make(map[catalog.CategoryID]int64),
		},
	}
	// Every document of the catalog is in category 3; node 0 (n.id)
	// holds four of them.
	n.tr = newTransport(1, 1, &n.stats)
	n.io = wireIO{n.tr}
	n.holders.base = []protocol.View{3: {Holders: []protocol.Holder{{Node: 0, Docs: n.byCat[3]}}, Placed: 4}}
	n.tr.close()
	for _, id := range []model.NodeID{2, 3, 4, 9} {
		n.book.set(id, "mem:0")
	}
	return n
}

// TestHandleQueryAllocs pins the query hot path's allocation budget:
// one exact-capacity matches slice and one boxed ResultMsg reply, and
// nothing for the query itself, which the node does not remember.
func TestHandleQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := allocTestNode()
	var id uint64
	avg := testing.AllocsPerRun(2000, func() {
		id++
		n.handleQuery(protocol.QueryMsg{
			ID: id, Category: 3, Want: 8, Origin: 9, Hops: 1, Entry: true,
		})
	})
	// matches slice + ResultMsg box = 2.
	if avg > 2 {
		t.Fatalf("handleQuery allocates %.1f per run, budget 2", avg)
	}
}

// TestHandleQueryForwardOnlyAllocs pins the cover path: an entry member
// holding nothing, whose view names no holder of the whole demand, asks
// all three holders, and the only allocation is the one boxed message
// they share (the cover's set of eight documents stays on the stack).
func TestHandleQueryForwardOnlyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := allocTestNode()
	delete(n.byCat, 3) // nothing stored: every query only asks
	n.holders.base = []protocol.View{3: {Holders: []protocol.Holder{
		{Node: 2, Docs: []catalog.DocID{10, 11, 12}}, {Node: 3, Docs: []catalog.DocID{13, 14, 15}}, {Node: 4, Docs: []catalog.DocID{16, 17}},
	}, Placed: 8}}
	m := protocol.QueryMsg{Category: 3, Want: 8, Origin: 9, Hops: 1, Entry: true}
	var ask []model.NodeID
	protocol.Forward(n.id, m, nil, n.holders.of(3), n.book.has, func(id model.NodeID) { ask = append(ask, id) })
	if len(ask) != 3 {
		t.Fatalf("Forward asks %v, want a cover of all three holders", ask)
	}
	avg := testing.AllocsPerRun(2000, func() {
		m.ID++
		n.handleQuery(m)
	})
	if avg > 1 {
		t.Fatalf("cover handleQuery allocates %.1f per run, budget 1 (one shared box)", avg)
	}
}

// TestHandleQueryDirectAllocs is its twin on the directed path: an entry
// member with no match sends one boxed message to one holder, and
// choosing that holder allocates nothing.
func TestHandleQueryDirectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := allocTestNode()
	delete(n.byCat, 3)
	n.holders.base = []protocol.View{3: {Holders: []protocol.Holder{{Node: 4, Docs: []catalog.DocID{10, 11, 12, 13, 14, 15, 16, 17}}}, Placed: 8}}
	m := protocol.QueryMsg{Category: 3, Want: 8, Origin: 9, Hops: 1, Entry: true}
	var ask []model.NodeID
	protocol.Forward(n.id, m, nil, n.holders.of(3), n.book.has, func(id model.NodeID) { ask = append(ask, id) })
	if len(ask) != 1 || ask[0] != 4 {
		t.Fatalf("Forward asks %v, want the query directed to node 4", ask)
	}
	avg := testing.AllocsPerRun(2000, func() {
		m.ID++
		n.handleQuery(m)
	})
	if avg > 1 {
		t.Fatalf("directed handleQuery allocates %.1f per run, budget 1 (one box)", avg)
	}
}

// TestHandleResultAllocs pins result folding: recording docs into the
// pending set must not allocate once the doc map has its size.
func TestHandleResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := allocTestNode()
	pq := &pendingQuery{id: 42, cat: 3, want: 1 << 30, need: 1 << 30, docs: make(map[catalog.DocID]bool, 8)}
	n.queries.pending[42] = pq
	docs := []catalog.DocID{10, 11, 12}
	avg := testing.AllocsPerRun(2000, func() {
		n.handleResult(protocol.ResultMsg{ID: 42, Docs: docs, Hops: 2})
	})
	if avg > 0 {
		t.Fatalf("handleResult allocates %.1f per run, budget 0", avg)
	}
}

// TestPendingResultAllocs pins the outcome snapshot: one exact-capacity
// Docs slice (plus the map-range loop's zero).
func TestPendingResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	pq := &pendingQuery{docs: map[catalog.DocID]bool{1: true, 2: true, 3: true}, hops: 2}
	avg := testing.AllocsPerRun(2000, func() {
		out := pq.result(true)
		if len(out.Docs) != 3 {
			t.Fatal("bad snapshot")
		}
	})
	if avg > 1 {
		t.Fatalf("pendingQuery.result allocates %.1f per run, budget 1", avg)
	}
}

// TestQueryRoundTripAllocs pins what one whole query costs in
// allocations across every goroutine it touches — the caller, two
// writers, two readers — on a two-node memnet cluster: 12, and the
// budget sits below 13, what a per-query copy of the serving cluster's
// member list cost.
func TestQueryRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := launchOverMemnet(t, twoNodeShape(), nil, memnet.New(), Options{CacheBytes: -1, WriterIdle: -1})
	n := c.Nodes[0]
	cat := bigCategory(c.inst)
	query := func() {
		if _, err := n.QueryContext(context.Background(), cat, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		query() // warm links and pools
	}
	if avg := testing.AllocsPerRun(500, query); avg > 12.5 {
		t.Fatalf("one query round trip allocates %.1f, budget 12.5", avg)
	}
}
