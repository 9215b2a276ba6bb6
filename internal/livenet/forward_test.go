package livenet

import (
	"bufio"
	"math/rand"
	"slices"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// The in-cluster rule (protocol.Forward): the entry member answers when
// it holds the documents the query can gather, asks one placement holder
// that does, or else answers what it holds and asks the holders that
// cover the rest; an asked node answers, or redirects when its store is
// stale. These tests pin what that costs in frames, exactly.

// askPrediction is what one query costs, read off the nodes' tables: the
// frames sent (the entry frame, the asks, one result per answering
// node), the asks alone, and the nodes that answer.
type askPrediction struct {
	frames, asks int64
	answerers    []model.NodeID
}

// predictAsk applies protocol.Forward at the entry and at every node it
// asks, each on its own tables, for a query seeking want documents.
func predictAsk(t *testing.T, c *Cluster, cat catalog.CategoryID, entry model.NodeID, want int) askPrediction {
	t.Helper()
	p := askPrediction{frames: 1}
	var visit func(id model.NodeID, m protocol.QueryMsg)
	visit = func(id model.NodeID, m protocol.QueryMsg) {
		if m.Hops > len(c.Nodes) {
			t.Fatalf("the query is still asked after %d hops: the rule loops", m.Hops)
		}
		n := c.Nodes[id]
		var asked []model.NodeID
		n.routeMu.RLock()
		answers := protocol.Forward(id, m, n.byCat[cat], n.holders.of(cat), n.book.has,
			func(h model.NodeID) { asked = append(asked, h) })
		n.routeMu.RUnlock()
		if answers {
			p.frames++
			p.answerers = append(p.answerers, id)
		}
		for _, to := range asked {
			p.frames++
			p.asks++
			visit(to, protocol.QueryMsg{Category: cat, Want: m.Want, Hops: m.Hops + 1})
		}
	}
	visit(entry, protocol.QueryMsg{Category: cat, Want: want, Hops: 1, Entry: true})
	return p
}

// clusterSends sums transport_sends over the cluster.
func clusterSends(c *Cluster) int64 {
	var s int64
	for _, n := range c.Nodes {
		s += n.stats.TransportSends.Load()
	}
	return s
}

// awaitSends waits until the cluster has sent exactly want frames in
// total; overshooting is an immediate failure.
func awaitSends(t *testing.T, c *Cluster, want int64, what string) {
	t.Helper()
	end := time.Now().Add(5 * time.Second)
	for {
		got := clusterSends(c)
		if got == want {
			return
		}
		if got > want || time.Now().After(end) {
			t.Fatalf("%s: cluster sent %d frames, want exactly %d", what, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// setStore replaces what one node holds of cat, under the node's
// routeMu.Lock like every table write.
func setStore(t *testing.T, n *Node, cat catalog.CategoryID, docs ...catalog.DocID) {
	t.Helper()
	locked(n, func(n *Node) { n.byCat[cat] = docs })
}

// setView replaces one node's holder view of cat.
func setView(t *testing.T, n *Node, cat catalog.CategoryID, placed int, hs ...protocol.Holder) {
	t.Helper()
	locked(n, func(n *Node) { putView(n, cat, protocol.View{Holders: hs, Placed: placed}) })
}

// routeVia makes entry the only member origin knows in cat's serving
// cluster, so every query origin issues for cat enters there.
func routeVia(t *testing.T, origin *Node, cat catalog.CategoryID, entry model.NodeID) {
	t.Helper()
	locked(origin, func(n *Node) { n.nrt[n.dcrtRow(cat).Cluster] = []model.NodeID{entry} })
}

// handBuiltCluster boots a 16-node memnet cluster whose tables the test
// rewrites, and picks a category with at least six documents.
func handBuiltCluster(t *testing.T) (*Cluster, catalog.CategoryID, []catalog.DocID) {
	t.Helper()
	c := launchOverMemnet(t, Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9},
		nil, memnet.New(), Options{CacheBytes: -1})
	cat := bigCategory(c.inst)
	docs := c.inst.Catalog.Cats[cat].Docs
	if len(docs) < 6 {
		t.Fatalf("category %d has %d documents, want 6", cat, len(docs))
	}
	return c, cat, docs
}

func servedBy(c *Cluster) []int64 {
	out := make([]int64, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Served()
	}
	return out
}

// queryExact runs one query for want documents from origin and checks it
// is Done with exactly need distinct documents of docs, sends exactly
// p.frames, and is answered by p.answerers alone, once each.
func queryExact(t *testing.T, c *Cluster, origin *Node, cat catalog.CategoryID, want, need int, docs []catalog.DocID, p askPrediction) {
	t.Helper()
	served := servedBy(c)
	before := clusterSends(c)
	out, err := origin.Query(cat, want, 5*time.Second)
	if err != nil || !out.Done || len(out.Docs) != need {
		t.Fatalf("query: %v, done %v, docs %v, want %d documents", err, out.Done, out.Docs, need)
	}
	for _, d := range out.Docs {
		if !slices.Contains(docs, d) {
			t.Errorf("document %d is not one the stores hold", d)
		}
	}
	awaitSends(t, c, before+p.frames, "query")
	time.Sleep(50 * time.Millisecond)
	awaitSends(t, c, before+p.frames, "query after quiescence")
	for i, s := range servedBy(c) {
		want := served[i]
		if slices.Contains(p.answerers, model.NodeID(i)) {
			want++
		}
		if s != want {
			t.Errorf("node %d served %d, want %d", i, s, want)
		}
	}
}

// TestCoverFrameCountExact: the entry holds one of the six placed
// documents and no holder holds the four the query asks for, so the
// entry answers its one and asks the holders that cover the rest: the
// two that add two documents each, not the one missing from its address
// book, the one whose document the entry answers already, or the one
// adding a single document. 1 entry frame + 2 asks + 3 results, and the
// origin keeps exactly four documents.
func TestCoverFrameCountExact(t *testing.T) {
	c, cat, d := handBuiltCluster(t)
	origin := c.Nodes[0]
	entry, gone, h1, h2, h3, h4 := model.NodeID(1), model.NodeID(2), model.NodeID(3), model.NodeID(4), model.NodeID(5), model.NodeID(6)
	stores := map[model.NodeID][]catalog.DocID{
		entry: {d[0]}, gone: {d[5]}, h1: {d[0]}, h2: {d[1], d[2]}, h3: {d[3], d[4]}, h4: {d[5]},
	}
	var hs []protocol.Holder
	for _, id := range []model.NodeID{entry, gone, h1, h2, h3, h4} {
		setStore(t, c.Nodes[id], cat, stores[id]...)
		hs = append(hs, protocol.Holder{Node: id, Docs: stores[id]})
	}
	setView(t, c.Nodes[entry], cat, 6, hs...)
	locked(c.Nodes[entry], func(n *Node) { n.book.del(gone) })
	routeVia(t, origin, cat, entry)

	p := predictAsk(t, c, cat, entry, 4)
	if p.frames != 6 || p.asks != 2 || !slices.Equal(p.answerers, []model.NodeID{entry, h2, h3}) {
		t.Fatalf("prediction %+v, want 6 frames, 2 asks, answered by %d %d %d", p, entry, h2, h3)
	}
	queryExact(t, c, origin, cat, 4, 4, d[:5], p)
}

// TestEntryHopReachesOriginMember: the origin is a cluster member and
// the only holder. The entry holds nothing and asks its successor
// holder, the origin, whose own store answers: 3 frames.
func TestEntryHopReachesOriginMember(t *testing.T) {
	c, cat, d := handBuiltCluster(t)
	origin, entry := c.Nodes[0], model.NodeID(1)
	setStore(t, origin, cat, d[0])
	setStore(t, c.Nodes[entry], cat)
	setView(t, c.Nodes[entry], cat, 1, protocol.Holder{Node: origin.id, Docs: d[:1]})
	routeVia(t, origin, cat, entry)

	p := predictAsk(t, c, cat, entry, 1)
	if p.frames != 3 || !slices.Equal(p.answerers, []model.NodeID{origin.id}) {
		t.Fatalf("prediction %+v, want 3 frames answered by the origin", p)
	}
	queryExact(t, c, origin, cat, 1, 1, d[:1], p)
}

// TestStaleHolderRedirects: the entry's view names a holder whose store
// is empty. The entry asks it; it holds nothing, so it passes the query
// on to the successor holder in its own view, which answers: 1 entry
// frame + 1 ask + 1 redirect + 1 result. When every holder is stale the
// chain ends after one visit per holder, and the query sends nothing
// more while it waits out its deadline.
func TestStaleHolderRedirects(t *testing.T) {
	c, cat, d := handBuiltCluster(t)
	origin := c.Nodes[0]
	entry, holder, stale := model.NodeID(1), model.NodeID(4), model.NodeID(7)
	setStore(t, c.Nodes[entry], cat)
	setStore(t, c.Nodes[stale], cat)
	setStore(t, c.Nodes[holder], cat, d[0])
	setView(t, c.Nodes[entry], cat, 1, protocol.Holder{Node: stale, Docs: d[:1]})
	setView(t, c.Nodes[stale], cat, 1, protocol.Holder{Node: holder, Docs: d[:1]}, protocol.Holder{Node: stale, Docs: d[:1]})
	routeVia(t, origin, cat, entry)

	p := predictAsk(t, c, cat, entry, 1)
	if p.frames != 4 || p.asks != 2 || !slices.Equal(p.answerers, []model.NodeID{holder}) {
		t.Fatalf("prediction %+v, want 4 frames through %d answered by %d", p, stale, holder)
	}
	queryExact(t, c, origin, cat, 1, 1, d[:1], p)

	// Now the holder is stale too, and its view names the stale node
	// back: entry → stale → holder → stale … would loop, but the redirect
	// reaches the holder at Hops 3, over its view's 2 holders, and ends.
	setStore(t, c.Nodes[holder], cat)
	setView(t, c.Nodes[holder], cat, 1, protocol.Holder{Node: holder, Docs: d[:1]}, protocol.Holder{Node: stale, Docs: d[:1]})
	p = predictAsk(t, c, cat, entry, 1)
	if p.frames != 3 || p.asks != 2 || len(p.answerers) != 0 {
		t.Fatalf("prediction %+v, want the entry frame and 2 asks, no answer", p)
	}
	before := clusterSends(c)
	if out, err := origin.Query(cat, 1, 300*time.Millisecond); err != ErrTimeout || len(out.Docs) != 0 {
		t.Fatalf("all-stale query: %v, docs %v, want ErrTimeout with nothing", err, out.Docs)
	}
	awaitSends(t, c, before+p.frames, "all-stale query")
}

// TestUnaddressableSuccessorSkipped: the entry's view lists itself, then
// a successor missing from its address book, then the holder; the query
// goes to the holder in one directed frame.
func TestUnaddressableSuccessorSkipped(t *testing.T) {
	c, cat, d := handBuiltCluster(t)
	origin := c.Nodes[0]
	holder, entry, gone := model.NodeID(4), model.NodeID(6), model.NodeID(7)
	setStore(t, c.Nodes[entry], cat)
	setStore(t, c.Nodes[holder], cat, d[0])
	setView(t, c.Nodes[entry], cat, 3,
		protocol.Holder{Node: holder, Docs: d[:1]},
		protocol.Holder{Node: entry, Docs: d[:3]},
		protocol.Holder{Node: gone, Docs: d[1:3]})
	locked(c.Nodes[entry], func(n *Node) { n.book.del(gone) })
	routeVia(t, origin, cat, entry)

	p := predictAsk(t, c, cat, entry, 1)
	if p.frames != 3 || !slices.Equal(p.answerers, []model.NodeID{holder}) {
		t.Fatalf("prediction %+v, want 3 frames: entry, directed to %d, result", p, holder)
	}
	queryExact(t, c, origin, cat, 1, 1, d[:1], p)
}

// TestControlFrameOrderOnStream: a control frame takes effect before the
// frame behind it on its stream. A probe carrying a category's move to
// the other cluster and then an entry query for it arrive in one flush
// at a member of the gaining cluster that holds none of the category
// yet. Applied
// first, the move hands that member its share of the placement, so it
// answers the query itself; routed before the move, the query would go
// to a holder of the old placement.
func TestControlFrameOrderOnStream(t *testing.T) {
	nw := memnet.New()
	c := launchOverMemnet(t, Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9},
		nil, nw, Options{CacheBytes: -1})
	cat := bigCategory(c.inst)
	cur := c.Nodes[0].dcrtEntryForTest(cat)
	to := 1 - cur.Cluster
	gaining := c.Nodes[0].members[to]
	if len(gaining) < 2 {
		t.Fatalf("cluster %d has %d members, want 2", to, len(gaining))
	}
	entry, origin := c.Nodes[gaining[0]], gaining[1]
	setStore(t, entry, cat)
	served := servedBy(c)

	conn, err := nw.Dial(entry.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.OpenStream(conn, time.Second); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	for _, msg := range []any{
		moveProbe(cat, protocol.DCRTEntry{Cluster: to, MoveCounter: cur.MoveCounter + 1}),
		protocol.QueryMsg{ID: 1 << 40, Category: cat, Want: 1, Origin: origin, Hops: 1, Entry: true},
	} {
		if err := wire.WriteEnvelope(bw, envelope{From: origin, Msg: msg}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	answerer := model.NodeID(-1)
	waitFor(t, 5*time.Second, "query answered", func() bool {
		for i, s := range servedBy(c) {
			if s > served[i] {
				answerer = model.NodeID(i)
				return true
			}
		}
		return false
	})
	if answerer != entry.id {
		t.Fatalf("node %d answered, not the entry %d the move made a holder: the query was routed before the move", answerer, entry.id)
	}
}

// TestAskSendsMatchOracle: on the query_small deployment (200 nodes,
// four clusters, the benchmark's shape and seed), one query per
// category for m = 1 and m = 4, from an origin outside the serving
// cluster through a fixed entry, sends exactly what predictAsk reads off
// the launched tables and returns min(m, placed) documents.
func TestAskSendsMatchOracle(t *testing.T) {
	c := launchOverMemnet(t, querySmallShape, nil, memnet.New(), Options{CacheBytes: -1})
	for _, m := range []int{1, 4} {
		askOracle(t, c, querySmallShape, m)
	}
}

// TestAskSendsMatchOracleThousand is the same check on the query_1k
// deployment, and pins two growth laws: m = 1 frames per query at
// 1 000 nodes stay within 1.2× those at 200, and m = 4 costs at most
// twice m = 1.
func TestAskSendsMatchOracleThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("1 000-node cluster; -short runs the 200-node oracle only")
	}
	if raceEnabled {
		t.Skip("the 200-node oracle covers the same code under the race detector")
	}
	small := askOracle(t, launchOverMemnet(t, querySmallShape, nil, memnet.New(), Options{CacheBytes: -1}), querySmallShape, 1)
	sh := Shape{Documents: 2000, Categories: 50, Nodes: 1000, Clusters: 10, Seed: 51}
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1})
	one, four := askOracle(t, c, sh, 1), askOracle(t, c, sh, 4)
	if one > 1.2*small {
		t.Errorf("%.2f frames per query at 1 000 nodes, over 1.2× the %.2f at 200", one, small)
	}
	if four > 2*one {
		t.Errorf("m = 4 costs %.2f frames per query at 1 000 nodes, over 2× the %.2f of m = 1", four, one)
	}
}

var querySmallShape = Shape{Documents: 400, Categories: 20, Nodes: 200, Clusters: 4, Seed: 51}

// askOracle runs the oracle for m on c, launched from sh, and returns
// the frames per query.
func askOracle(t *testing.T, c *Cluster, sh Shape, m int) float64 {
	t.Helper()
	d, err := sh.deploy()
	if err != nil {
		t.Fatal(err)
	}
	inst, assign, mem := d.Inst, d.Assign, d.Mem
	rng := rand.New(rand.NewSource(sh.Seed + int64(m)))
	want := clusterSends(c)
	var queries, asked, frames int64
	for _, cg := range inst.Catalog.Cats {
		members := mem.NodesOf(assign[cg.ID])
		if len(cg.Docs) == 0 || len(members) < 2 {
			continue
		}
		entry := members[rng.Intn(len(members))]
		var origin *Node
		for origin == nil {
			if n := c.Nodes[rng.Intn(len(c.Nodes))]; !slices.Contains(members, n.id) {
				origin = n
			}
		}
		routeVia(t, origin, cg.ID, entry)
		p := predictAsk(t, c, cg.ID, entry, m)
		need := c.Nodes[entry].holders.of(cg.ID).Target(m)
		out, err := origin.Query(cg.ID, m, 5*time.Second)
		if err != nil || !out.Done || len(out.Docs) != need {
			t.Fatalf("m = %d, category %d from node %d via %d: %v, done %v, %d documents, want %d",
				m, cg.ID, origin.id, entry, err, out.Done, len(out.Docs), need)
		}
		want += p.frames
		awaitSends(t, c, want, "category query")
		queries++
		if p.asks > 0 {
			asked++
		}
		frames += p.frames
	}
	time.Sleep(100 * time.Millisecond)
	awaitSends(t, c, want, "all queries after quiescence")
	if queries == 0 {
		t.Fatal("no category was queried")
	}
	perQuery := float64(frames) / float64(queries)
	t.Logf("%d nodes, m = %d, %d queries (%d asked a holder): %.2f frames/query",
		sh.Nodes, m, queries, asked, perQuery)
	return perQuery
}

// putView replaces n's view of cat. Caller holds n.routeMu.Lock.
func putView(n *Node, cat catalog.CategoryID, v protocol.View) {
	if n.holders.moved == nil {
		n.holders.moved = make(map[catalog.CategoryID]protocol.View)
	}
	n.holders.moved[cat] = v
}
