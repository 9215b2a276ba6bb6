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

// The in-cluster forwarding rule: a node forwards a query's residual
// demand to every NRT neighbour except the one the frame came from, and
// the entry hop (sent by the origin) is forwarded to all of them. These
// tests pin what that costs in frames, exactly, and that it reaches the
// same nodes the echoing flood did.

// floodPrediction is what one m = 1 query costs, read off the routing
// tables: the frames sent under the forwarding rule and under the old
// echoing flood (which also sent every forwarder's copy back to its
// sender), and the holders the flood reaches — each answers once.
type floodPrediction struct {
	frames, echoFrames int64
	holders            []model.NodeID
}

// predictFlood walks the serving cluster's NRTs breadth-first from entry,
// expanding only through nodes that hold nothing of cat: those forward,
// holders answer with one ResultMsg and stop. Every node reached runs the
// query exactly once, whichever copy arrives first, so the count is exact
// provided in-cluster NRT links are symmetric (Launch wires them so) —
// then the sender of a non-entry node's first copy is always among its
// neighbours and is the one left out. The leading frame is the origin's
// entry message.
func predictFlood(t *testing.T, c *Cluster, cat catalog.CategoryID, entry model.NodeID) floodPrediction {
	t.Helper()
	view := func(id model.NodeID) (nbs []model.NodeID, holds bool) {
		n := c.Nodes[id]
		n.routeMu.RLock()
		defer n.routeMu.RUnlock()
		return slices.Clone(n.nrt[n.dcrt[cat].Cluster]), len(n.byCat[cat]) > 0
	}
	p := floodPrediction{frames: 1, echoFrames: 1}
	reached := map[model.NodeID]bool{entry: true}
	for queue := []model.NodeID{entry}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		nbs, holds := view(v)
		if holds {
			p.frames++
			p.echoFrames++
			p.holders = append(p.holders, v)
			continue
		}
		p.echoFrames += int64(len(nbs))
		p.frames += int64(len(nbs))
		if v != entry {
			p.frames--
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
	return p
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
// entry for that cluster and whether it holds doc. Runs in the node's
// control loop, the tables' only writer.
func setTables(t *testing.T, n *Node, cat catalog.CategoryID, nbs []model.NodeID, doc catalog.DocID, holds bool) {
	t.Helper()
	runCmd(t, n, func(n *Node) {
		n.nrt[n.dcrt[cat].Cluster] = nbs
		n.byCat[cat] = nil
		if holds {
			n.byCat[cat] = []catalog.DocID{doc}
		}
	})
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
// whose NRT names only the entry. The query reaches all ten ring nodes;
// the entry forwards to both neighbours, every other non-holder to all
// neighbours but its sender, the holder answers once.
func TestFloodFrameCountExact(t *testing.T) {
	c, cat, doc := handBuiltCluster(t)
	origin := c.Nodes[0]
	ring := []model.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	entry, holder := ring[0], ring[3]
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
	setTables(t, origin, cat, []model.NodeID{entry}, doc, false)

	p := predictFlood(t, c, cat, entry)
	// 1 entry frame + 2 from the entry + 1 from each of six degree-2
	// forwarders + 2 from each of the two chord ends + 1 result.
	if p.frames != 14 || p.echoFrames != 22 || !slices.Equal(p.holders, []model.NodeID{holder}) {
		t.Fatalf("prediction %+v, want 14 frames (22 echoing) reaching holder %d", p, holder)
	}
	served := servedBy(c)
	before := clusterSends(c)
	out, err := origin.Query(cat, 1, 5*time.Second)
	if err != nil || !slices.Equal(out.Docs, []catalog.DocID{doc}) {
		t.Fatalf("query: %v, docs %v", err, out.Docs)
	}
	awaitSends(t, c, before+p.frames, "ring flood")
	time.Sleep(50 * time.Millisecond)
	awaitSends(t, c, before+p.frames, "ring flood after quiescence")
	for i, s := range servedBy(c) {
		want := served[i]
		if model.NodeID(i) == holder {
			want++ // what the echoing flood served too: one answer per reached holder
		}
		if s != want {
			t.Errorf("node %d served %d, want %d", i, s, want)
		}
	}
}

// TestEntryHopReachesOriginMember: the origin is a cluster member, the
// only holder, and a leaf hanging off the entry, so the entry's copy back
// to its sender is the only way the flood can reach it. The entry hop is
// exempt from the rule, and the origin's own store answers.
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
	floodOracle(t, Shape{Documents: 400, Categories: 20, Nodes: 200, Clusters: 4, Seed: 51})
}

// TestFloodSendsMatchOracleThousand is the same check on the query_1k
// deployment.
func TestFloodSendsMatchOracleThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("1 000-node cluster; -short runs the 200-node oracle only")
	}
	if raceEnabled {
		t.Skip("the 200-node oracle covers the same code under the race detector")
	}
	floodOracle(t, Shape{Documents: 2000, Categories: 50, Nodes: 1000, Clusters: 10, Seed: 51})
}

func floodOracle(t *testing.T, sh Shape) {
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
	var queries, frames, echoFrames int64
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
		awaitSends(t, c, want, "category flood")
		queries++
		frames += p.frames
		echoFrames += p.echoFrames
	}
	time.Sleep(100 * time.Millisecond)
	awaitSends(t, c, want, "all floods after quiescence")
	if queries == 0 {
		t.Fatal("no category was queried")
	}
	t.Logf("%d queries: %.2f frames/query (the echoing flood: %.2f)",
		queries, float64(frames)/float64(queries), float64(echoFrames)/float64(queries))
}
