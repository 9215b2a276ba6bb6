package livenet

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// The in-cluster forwarding rule (protocol.Forward): an entry member
// that matched nothing sends the query to one holder its placement view
// names; otherwise a node forwards the residual demand to every NRT
// neighbour except the one the frame came from, and the entry hop (sent
// by the origin) is forwarded to all of them. These tests pin what that
// costs in frames, exactly, and that the flood reaches the same nodes
// the echoing flood did.

// floodPrediction is what one m = 1 query costs, read off the routing
// tables: the frames sent under the forwarding rule, under the flood
// alone (no directed step) and under the old echoing flood (which also
// sent every forwarder's copy back to its sender), and the holders the
// rule reaches — each answers once. directed is the holder the entry
// sent the query to, when it did.
type floodPrediction struct {
	frames, floodFrames, echoFrames int64
	holders                         []model.NodeID
	directed                        model.NodeID
	isDirected                      bool
}

// predictFlood applies protocol.Forward to the entry's own tables: when
// it directs the query, the cost is the entry frame, the directed copy
// and the walk from the directed holder, whose sender — the entry — has
// run the query already. Otherwise it is the entry frame plus the flood
// walk from the entry.
func predictFlood(t *testing.T, c *Cluster, cat catalog.CategoryID, entry model.NodeID) floodPrediction {
	t.Helper()
	var p floodPrediction
	var flood floodWalk
	flood.run(t, c, cat, entry, entry, false)
	p.floodFrames, p.echoFrames = 1+flood.frames, 1+flood.echoFrames
	n := c.Nodes[entry]
	n.routeMu.RLock()
	r := protocol.Forward(entry, protocol.QueryMsg{Category: cat, Want: 1, Entry: true},
		min(1, len(n.byCat[cat])), n.holders.of(cat), n.book.has)
	n.routeMu.RUnlock()
	if !r.Direct {
		p.frames, p.holders = p.floodFrames, flood.holders
		return p
	}
	var w floodWalk
	w.run(t, c, cat, r.To, entry, true)
	p.frames, p.holders = 2+w.frames, w.holders
	p.directed, p.isDirected = r.To, true
	return p
}

// floodWalk walks the serving cluster's NRTs breadth-first from start,
// expanding only through nodes that hold nothing of cat: those forward,
// holders answer with one ResultMsg and stop. Every node reached runs
// the query exactly once, whichever copy arrives first, so the count is
// exact provided in-cluster NRT links are symmetric (Launch wires them
// so) — then the sender of a non-start node's first copy is always among
// its neighbours and is the one left out. start leaves out sender only
// when skipSender is set (it received a non-entry frame); sender has run
// the query then, so the walk never enters it.
type floodWalk struct {
	frames, echoFrames int64
	holders            []model.NodeID
}

func (w *floodWalk) run(t *testing.T, c *Cluster, cat catalog.CategoryID, start, sender model.NodeID, skipSender bool) {
	t.Helper()
	view := func(id model.NodeID) (nbs []model.NodeID, holds bool) {
		n := c.Nodes[id]
		n.routeMu.RLock()
		defer n.routeMu.RUnlock()
		return slices.Clone(n.nrt[n.dcrt[cat].Cluster]), len(n.byCat[cat]) > 0
	}
	reached := map[model.NodeID]bool{start: true}
	if skipSender {
		reached[sender] = true
	}
	for queue := []model.NodeID{start}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		nbs, holds := view(v)
		if holds {
			w.frames++
			w.echoFrames++
			w.holders = append(w.holders, v)
			continue
		}
		w.echoFrames += int64(len(nbs))
		w.frames += int64(len(nbs))
		if v != start || skipSender && slices.Contains(nbs, sender) {
			w.frames--
		}
		for _, nb := range nbs {
			if back, _ := view(nb); !slices.Contains(back, v) {
				t.Fatalf("NRT link %d→%d is one-way: the prediction needs symmetric links", v, nb)
			}
			if !reached[nb] {
				reached[nb] = true
				queue = append(queue, nb)
			}
		}
	}
}

// clusterSends sums transport_sends over the cluster.
func clusterSends(c *Cluster) int64 {
	var s int64
	for _, n := range c.Nodes {
		s += n.tr.sends.Load()
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

// setTables rewrites one node's view of cat's serving cluster: its NRT
// entry for that cluster and whether it holds doc. It also empties the
// node's holder view of cat, so the node floods cat as an entry: the
// launched view names holders the rewritten tables no longer match.
// Runs in the node's control loop, the tables' only writer.
func setTables(t *testing.T, n *Node, cat catalog.CategoryID, nbs []model.NodeID, doc catalog.DocID, holds bool) {
	t.Helper()
	runCmd(t, n, func(n *Node) {
		n.nrt[n.dcrt[cat].Cluster] = nbs
		n.byCat[cat] = nil
		if holds {
			n.byCat[cat] = []catalog.DocID{doc}
		}
		n.holders.move(cat, nil)
	})
}

// setView replaces one node's holder view of cat.
func setView(t *testing.T, n *Node, cat catalog.CategoryID, hs ...protocol.Holder) {
	t.Helper()
	runCmd(t, n, func(n *Node) { n.holders.moved[cat] = hs })
}

// handBuiltCluster boots a 16-node memnet cluster whose routing tables
// the test rewrites, and picks a category with a document.
func handBuiltCluster(t *testing.T) (*Cluster, catalog.CategoryID, catalog.DocID) {
	t.Helper()
	c := launchOverMemnet(t, Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9},
		nil, memnet.New(), Options{CacheBytes: -1})
	cat := bigCategory(c.inst)
	return c, cat, c.inst.Catalog.Cats[cat].Docs[0]
}

func servedBy(c *Cluster) []int64 {
	out := make([]int64, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Served()
	}
	return out
}

// TestFloodFrameCountExact: a ring of ten non-holders with one chord,
// a holder three hops from the entry, and an origin outside the ring
// whose NRT names only the entry. No holder view names anyone, so the
// entry floods (the fallback). The query reaches all ten ring nodes;
// the entry forwards to both neighbours, every other non-holder to all
// neighbours but its sender, the holder answers once.
func TestFloodFrameCountExact(t *testing.T) {
	c, cat, doc := handBuiltCluster(t)
	origin := c.Nodes[0]
	ring := []model.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	entry, holder := ring[0], ring[3]
	ringTables(t, c, cat, doc, ring, holder)
	setTables(t, origin, cat, []model.NodeID{entry}, doc, false)

	p := predictFlood(t, c, cat, entry)
	// 1 entry frame + 2 from the entry + 1 from each of six degree-2
	// forwarders + 2 from each of the two chord ends + 1 result.
	if p.frames != 14 || p.echoFrames != 22 || !slices.Equal(p.holders, []model.NodeID{holder}) {
		t.Fatalf("prediction %+v, want 14 frames (22 echoing) reaching holder %d", p, holder)
	}
	// One answer per reached holder, what the echoing flood served too.
	queryExact(t, c, origin, cat, doc, p, holder)
}

// TestEntryHopReachesOriginMember: the origin is a cluster member, the
// only holder, and a leaf hanging off the entry, so the entry's copy back
// to its sender is the only way the flood can reach it. With no holder
// view the entry floods; the entry hop is exempt from the no-echo rule,
// and the origin's own store answers.
func TestEntryHopReachesOriginMember(t *testing.T) {
	c, cat, doc := handBuiltCluster(t)
	tables := map[model.NodeID][]model.NodeID{
		0: {1},
		1: {0, 2, 3},
		2: {1, 3},
		3: {1, 2, 4},
		4: {3},
	}
	for id, nbs := range tables {
		setTables(t, c.Nodes[id], cat, nbs, doc, id == 0)
	}
	p := predictFlood(t, c, cat, 1)
	if p.frames != 8 || !slices.Equal(p.holders, []model.NodeID{0}) {
		t.Fatalf("prediction %+v, want 8 frames reaching the origin", p)
	}
	before := clusterSends(c)
	served := c.Nodes[0].Served()
	out, err := c.Nodes[0].Query(cat, 1, 3*time.Second)
	if err != nil || !slices.Equal(out.Docs, []catalog.DocID{doc}) {
		t.Fatalf("origin's own document did not come back through the flood: %v, docs %v", err, out.Docs)
	}
	if got := c.Nodes[0].Served() - served; got != 1 {
		t.Errorf("origin served %d, want 1", got)
	}
	awaitSends(t, c, before+p.frames, "leaf-origin flood")
}

// TestFloodNeverEchoesToSender drives one node's handler directly, its
// three neighbours being sinks: a forwarded frame from neighbour 2 goes
// to 3 and 4 only — also when it arrives again after two sweeps have
// rotated the seen set — while an entry frame from 2 (2 is the origin)
// goes to all three.
func TestFloodNeverEchoesToSender(t *testing.T) {
	var mu sync.Mutex
	got := map[model.NodeID]int{}
	count := func(id model.NodeID) int {
		mu.Lock()
		defer mu.Unlock()
		return got[id]
	}
	stats := metrics.NewSyncCounter()
	n := &Node{
		id:    1,
		stats: stats,
		tr:    newTransport(1, 1, stats),
		book:  newAddrBook(),
		dcrt:  map[catalog.CategoryID]protocol.DCRTEntry{3: {Cluster: 1}},
		byCat: map[catalog.CategoryID][]catalog.DocID{},
		nrt:   map[model.ClusterID][]model.NodeID{1: {2, 3, 4}},
	}
	t.Cleanup(n.tr.close)
	for _, id := range []model.NodeID{2, 3, 4} {
		s := startSink(t, "127.0.0.1:0", nil, func(env envelope) {
			if _, ok := env.Msg.(protocol.QueryMsg); ok {
				mu.Lock()
				got[id]++
				mu.Unlock()
			}
		})
		n.book.set(id, s.addr())
	}
	sh := newShards(n, 1, 1)[0]
	fwd := protocol.QueryMsg{ID: 77, Category: 3, Want: 1, Origin: 9, Hops: 2}
	await := func(what string, want map[model.NodeID]int) {
		t.Helper()
		waitFor(t, 5*time.Second, what, func() bool {
			for id, k := range want {
				if count(id) != k {
					return false
				}
			}
			return true
		})
	}

	sh.handleQuery(2, fwd)
	await("forward from 2", map[model.NodeID]int{3: 1, 4: 1})
	sh.handleQuery(2, fwd) // a duplicate: dropped by the seen set
	runShard(sh, func(s *engineShard) {
		s.sweep(time.Now())
		s.sweep(time.Now())
	})
	sh.handleQuery(2, fwd) // forgotten by now: runs again, still not echoed
	await("forward from 2 after two sweeps", map[model.NodeID]int{3: 2, 4: 2})
	sh.handleQuery(2, protocol.QueryMsg{ID: 78, Category: 3, Want: 1, Origin: 2, Hops: 1, Entry: true})
	// Each link is FIFO: an echo sent earlier would have reached 2 first.
	await("entry frame from 2", map[model.NodeID]int{2: 1, 3: 3, 4: 3})
}

// TestFloodSendsMatchOracle: on the query_small deployment (200 nodes,
// four clusters, the benchmark's shape and seed), one m = 1 query per
// non-empty category from an origin outside the serving cluster through a
// fixed entry sends exactly what predictFlood reads off the primed tables.
func TestFloodSendsMatchOracle(t *testing.T) {
	floodOracle(t, querySmallShape)
}

// TestFloodSendsMatchOracleThousand is the same check on the query_1k
// deployment, and pins the growth law: frames per query at 1 000 nodes
// stay within 1.2× those at 200.
func TestFloodSendsMatchOracleThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("1 000-node cluster; -short runs the 200-node oracle only")
	}
	if raceEnabled {
		t.Skip("the 200-node oracle covers the same code under the race detector")
	}
	small := floodOracle(t, querySmallShape)
	big := floodOracle(t, Shape{Documents: 2000, Categories: 50, Nodes: 1000, Clusters: 10, Seed: 51})
	if big > 1.2*small {
		t.Fatalf("%.2f frames per query at 1 000 nodes, over 1.2× the %.2f at 200", big, small)
	}
}

var querySmallShape = Shape{Documents: 400, Categories: 20, Nodes: 200, Clusters: 4, Seed: 51}

// floodOracle runs the oracle on sh and returns the frames per query.
func floodOracle(t *testing.T, sh Shape) float64 {
	inst, assign, _, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := model.NewMembership(inst, assign)
	if err != nil {
		t.Fatal(err)
	}
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1})
	rng := rand.New(rand.NewSource(sh.Seed))
	want := clusterSends(c)
	var queries, directed, frames, floodFrames, echoFrames int64
	for _, cg := range inst.Catalog.Cats {
		cl := assign[cg.ID]
		members := mem.NodesOf(cl)
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
		runCmd(t, origin, func(n *Node) { n.nrt[cl] = []model.NodeID{entry} })
		p := predictFlood(t, c, cg.ID, entry)
		if len(p.holders) == 0 {
			continue
		}
		if _, err := origin.Query(cg.ID, 1, 5*time.Second); err != nil {
			t.Fatalf("category %d from node %d via %d: %v", cg.ID, origin.id, entry, err)
		}
		want += p.frames
		awaitSends(t, c, want, "category query")
		queries++
		if p.isDirected {
			directed++
		}
		frames += p.frames
		floodFrames += p.floodFrames
		echoFrames += p.echoFrames
	}
	time.Sleep(100 * time.Millisecond)
	awaitSends(t, c, want, "all queries after quiescence")
	if queries == 0 {
		t.Fatal("no category was queried")
	}
	perQuery := float64(frames) / float64(queries)
	t.Logf("%d nodes, %d queries (%d directed): %.2f frames/query (the flood: %.2f, the echoing flood: %.2f)",
		sh.Nodes, queries, directed, perQuery,
		float64(floodFrames)/float64(queries), float64(echoFrames)/float64(queries))
	return perQuery
}

// TestStaleDirectedHolderFloods: the entry's view names a holder whose
// store is empty. The entry sends it the one directed copy; it runs a
// non-entry frame, matches nothing and floods from where it sits, leaving
// out only its sender, until the real holder answers.
func TestStaleDirectedHolderFloods(t *testing.T) {
	c, cat, doc := handBuiltCluster(t)
	origin := c.Nodes[0]
	ring := []model.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	entry, holder, stale := ring[0], ring[3], ring[6]
	ringTables(t, c, cat, doc, ring, holder)
	setTables(t, origin, cat, []model.NodeID{entry}, doc, false)
	setView(t, c.Nodes[entry], cat, protocol.Holder{Node: stale, Docs: 5})

	p := predictFlood(t, c, cat, entry)
	// 1 entry frame + 1 directed + 3 from the stale holder (its sender is
	// not a neighbour) + 1 each from ring[5], ring[7], ring[4], ring[9]
	// + 2 from ring[8] + 1 result. The entry ran the query, so the walk
	// stops at it: ring[1] and ring[2] are never reached.
	if p.frames != 12 || !p.isDirected || p.directed != stale || !slices.Equal(p.holders, []model.NodeID{holder}) {
		t.Fatalf("prediction %+v, want 12 frames through %d reaching holder %d", p, stale, holder)
	}
	queryExact(t, c, origin, cat, doc, p, holder)
}

// TestUnaddressableSuccessorSkipped: the entry's view lists itself, then
// a successor missing from its address book, then the holder; the query
// goes to the holder in one directed frame.
func TestUnaddressableSuccessorSkipped(t *testing.T) {
	c, cat, doc := handBuiltCluster(t)
	origin := c.Nodes[0]
	ring := []model.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	entry, gone, holder := ring[5], ring[6], ring[3]
	ringTables(t, c, cat, doc, ring, holder)
	setTables(t, origin, cat, []model.NodeID{entry}, doc, false)
	setView(t, c.Nodes[entry], cat,
		protocol.Holder{Node: holder, Docs: 1},
		protocol.Holder{Node: entry, Docs: 3},
		protocol.Holder{Node: gone, Docs: 2})
	runCmd(t, c.Nodes[entry], func(n *Node) { n.book.del(gone) })

	p := predictFlood(t, c, cat, entry)
	if p.frames != 3 || p.directed != holder || !slices.Equal(p.holders, []model.NodeID{holder}) {
		t.Fatalf("prediction %+v, want 3 frames: entry, directed to %d, result", p, holder)
	}
	queryExact(t, c, origin, cat, doc, p, holder)
}

// ringTables wires ring as a cycle with one chord, ring[6]–ring[8], in
// cat's serving cluster; only holder stores doc.
func ringTables(t *testing.T, c *Cluster, cat catalog.CategoryID, doc catalog.DocID, ring []model.NodeID, holder model.NodeID) {
	t.Helper()
	for i, id := range ring {
		nbs := []model.NodeID{ring[(i+len(ring)-1)%len(ring)], ring[(i+1)%len(ring)]}
		switch id {
		case ring[6]:
			nbs = append(nbs, ring[8])
		case ring[8]:
			nbs = append(nbs, ring[6])
		}
		setTables(t, c.Nodes[id], cat, nbs, doc, id == holder)
	}
}

// queryExact runs one m = 1 query from origin and checks it returns doc,
// sends exactly p.frames and is served by holder alone.
func queryExact(t *testing.T, c *Cluster, origin *Node, cat catalog.CategoryID, doc catalog.DocID, p floodPrediction, holder model.NodeID) {
	t.Helper()
	served := servedBy(c)
	before := clusterSends(c)
	out, err := origin.Query(cat, 1, 5*time.Second)
	if err != nil || !slices.Equal(out.Docs, []catalog.DocID{doc}) {
		t.Fatalf("query: %v, docs %v", err, out.Docs)
	}
	awaitSends(t, c, before+p.frames, "query")
	time.Sleep(50 * time.Millisecond)
	awaitSends(t, c, before+p.frames, "query after quiescence")
	for i, s := range servedBy(c) {
		want := served[i]
		if model.NodeID(i) == holder {
			want++
		}
		if s != want {
			t.Errorf("node %d served %d, want %d", i, s, want)
		}
	}
}
