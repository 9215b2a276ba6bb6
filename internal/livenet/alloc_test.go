package livenet

import (
	"context"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// allocTestNode builds a minimal node whose query hot path can run
// without any network: the transport is pre-closed, so send() resolves
// the address and enqueue() no-ops deterministically — what's measured
// is exactly the in-process handler work (decode-side handling, shard
// dispatch state, reply/forward construction).
func allocTestNode() (*Node, *engineShard) {
	stats := metrics.NewSyncCounter()
	n := &Node{
		stats: stats,
		tr:    newTransport(1, 1, stats),
		book:  newAddrBook(),
		dcrt:  map[catalog.CategoryID]protocol.DCRTEntry{3: {Cluster: 1}},
		byCat: map[catalog.CategoryID][]catalog.DocID{3: {10, 11, 12, 13}},
		nrt:   map[model.ClusterID][]model.NodeID{1: {2, 3, 4}},
	}
	n.tr.close()
	for _, id := range []model.NodeID{2, 3, 4, 9} {
		n.book.set(id, "mem:0")
	}
	sh := newShards(n, 1, 1)[0]
	return n, sh
}

// TestHandleQueryAllocs pins the query hot path's allocation budget:
// one exact-capacity matches slice, one boxed ResultMsg reply, and ONE
// boxed QueryMsg shared by every forward edge. The seed code re-boxed
// the forward message per neighbor and grew matches through an append
// chain, so this pin is what keeps the hunt's wins from silently
// regressing.
func TestHandleQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	_, sh := allocTestNode()
	const runs = 2000
	// Pre-size the dedup set so map growth doesn't alias handler allocs.
	sh.seenCur = make(map[uint64]struct{}, 4*runs)
	var id uint64
	avg := testing.AllocsPerRun(runs, func() {
		id++
		sh.handleQuery(9, protocol.QueryMsg{
			ID: id, Category: 3, Want: 8, Origin: 9, Hops: 1, Entry: true,
		})
	})
	// matches slice + ResultMsg box + one shared forward box = 3.
	if avg > 3 {
		t.Fatalf("handleQuery allocates %.1f per run, budget 3", avg)
	}
}

// TestHandleQueryForwardOnlyAllocs pins the pure-relay path (no local
// matches): the only allocation is the one boxed forward message,
// regardless of fan-out width.
func TestHandleQueryForwardOnlyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n, sh := allocTestNode()
	delete(n.byCat, 3) // nothing stored: every query only forwards
	const runs = 2000
	sh.seenCur = make(map[uint64]struct{}, 4*runs)
	var id uint64
	avg := testing.AllocsPerRun(runs, func() {
		id++
		sh.handleQuery(2, protocol.QueryMsg{
			ID: id, Category: 3, Want: 8, Origin: 9, Hops: 1,
		})
	})
	if avg > 1 {
		t.Fatalf("forward-only handleQuery allocates %.1f per run, budget 1 (one shared box)", avg)
	}
}

// TestHandleQueryDirectAllocs is its twin on the directed path: an entry
// member with no match sends one boxed message to one holder, and
// choosing that holder allocates nothing.
func TestHandleQueryDirectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n, sh := allocTestNode()
	delete(n.byCat, 3)
	n.holders.base = [][]protocol.Holder{3: {{Node: 4, Docs: 8}}}
	m := protocol.QueryMsg{Category: 3, Want: 8, Origin: 9, Hops: 1, Entry: true}
	if r := protocol.Forward(n.id, m, 0, n.holders.of(3), n.book.has); !r.Direct || r.To != 4 {
		t.Fatalf("Forward = %+v, want the query directed to node 4", r)
	}
	const runs = 2000
	sh.seenCur = make(map[uint64]struct{}, 4*runs)
	avg := testing.AllocsPerRun(runs, func() {
		m.ID++
		sh.handleQuery(9, m)
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
	_, sh := allocTestNode()
	pq := &pendingQuery{id: 42, want: 1 << 30, docs: make(map[catalog.DocID]bool, 8)}
	sh.pending[42] = pq
	docs := []catalog.DocID{10, 11, 12}
	avg := testing.AllocsPerRun(2000, func() {
		sh.handleResult(protocol.ResultMsg{ID: 42, Docs: docs, Hops: 2, From: 2})
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
// writers, two readers — on a two-node memnet cluster. Registering under
// the shard's lock instead of through its command channel took a reply
// channel and a closure out of every call: 13 now, 15 at the commit
// before, and the budget sits between the two.
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
		query() // warm links, pools and the seen maps
	}
	if avg := testing.AllocsPerRun(500, query); avg > 14 {
		t.Fatalf("one query round trip allocates %.1f, budget 14", avg)
	}
}
