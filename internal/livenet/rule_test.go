package livenet

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
)

// launchReplicated launches a generated deployment over memnet, placing
// every non-hot document on reps nodes.
func launchReplicated(t *testing.T, docs, cats, nodes, clusters, reps int, seed int64) (*Cluster, []model.ClusterID, *model.Membership) {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs, cfg.Catalog.NumCats = docs, cats
	cfg.NumNodes, cfg.NumClusters, cfg.Seed = nodes, clusters, seed
	rcfg := replica.DefaultConfig()
	rcfg.NReps = reps
	d, err := replica.Deploy(cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Launch(d.Inst, d.Assign, d.Place, Options{Seed: seed, CacheBytes: -1, Hooks: memnetHooks(memnet.New(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, d.Assign, d.Mem
}

// checkQuery runs one query for m documents of cat from origin and
// checks it is Done with exactly min(m, placed) distinct documents of
// the category.
func checkQuery(t *testing.T, c *Cluster, origin *Node, cat catalog.CategoryID, m int) {
	t.Helper()
	var placed int
	locked(origin, func(n *Node) { placed = n.holders.of(cat).Placed })
	out, err := origin.Query(cat, m, 5*time.Second)
	want := min(m, placed)
	if err != nil || !out.Done || len(out.Docs) != want || out.Results != want {
		t.Fatalf("node %d, category %d, m = %d: %v, done %v, %d documents, want %d",
			origin.id, cat, m, err, out.Done, len(out.Docs), want)
	}
	for _, d := range out.Docs {
		if !slices.Contains(c.inst.Catalog.Doc(d).Categories, cat) {
			t.Fatalf("node %d, category %d: document %d is of another category", origin.id, cat, d)
		}
	}
}

// checkNoTimers fails when any query of c waited on a timer: a pending
// query expired, or one went unanswered long enough to be re-sent.
func checkNoTimers(t *testing.T, c *Cluster) {
	t.Helper()
	s := c.Stats()
	if s["pending_expired"] != 0 || s["query_resends"] != 0 || s["query_timeouts"] != 0 {
		t.Fatalf("pending_expired = %d, query_resends = %d, query_timeouts = %d: a query waited on a timer",
			s["pending_expired"], s["query_resends"], s["query_timeouts"])
	}
}

// TestQueryRuleProperty: on random deployments — 4 to 200 nodes in 1 to
// 4 clusters, so clusters of 2 to 200 members, and 1 to 3 replicas per
// document — every node asks once for 1
// to 5 documents of a random category, empty ones included. Every query
// is Done with exactly min(m, documents placed) distinct documents of
// its category, and none waits on a timer. Then, on nodes without
// adaptation, a category moves to another cluster, and every node's
// query for it is answered by the gaining cluster's PlaceCategory share
// the same way.
func TestQueryRuleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := 6
	if testing.Short() || raceEnabled {
		shapes = 3
	}
	sizes := []int{}
	for i := 0; i < shapes; i++ {
		nodes, clusters, reps, seed := 4+rng.Intn(197), 1+rng.Intn(4), 1+rng.Intn(3), rng.Int63()
		docs, cats := 20*nodes, 2+nodes/4
		switch i {
		case 0:
			nodes, clusters, docs, cats = 200, 1, 4000, 52 // one cluster of 200
		case 1:
			nodes, clusters, docs, cats, seed = 6, 3, 16, 4, 5 // clusters of two and three
		}
		c, assign, mem := launchReplicated(t, docs, cats, nodes, clusters, reps, seed)
		for cl := 0; cl < clusters; cl++ {
			if size := len(mem.NodesOf(model.ClusterID(cl))); size > 0 {
				sizes = append(sizes, size)
			}
		}
		for _, origin := range c.Nodes {
			checkQuery(t, c, origin, catalog.CategoryID(rng.Intn(len(assign))), 1+rng.Intn(5))
		}
		checkNoTimers(t, c)
	}
	slices.Sort(sizes)
	t.Logf("%d shapes, cluster sizes %v", shapes, sizes)
	if sizes[0] > 2 || sizes[len(sizes)-1] < 200 {
		t.Errorf("cluster sizes span %d–%d, want 2–200", sizes[0], sizes[len(sizes)-1])
	}

	t.Run("move without adaptation", func(t *testing.T) {
		c, assign, mem := launchReplicated(t, 400, 12, 40, 3, 2, 77)
		cat := bigCategory(c.inst)
		to := (assign[cat] + 1) % 3
		if len(mem.NodesOf(to)) < 2 {
			t.Fatalf("cluster %d has %d members", to, len(mem.NodesOf(to)))
		}
		entry := protocol.DCRTEntry{Cluster: to, MoveCounter: 1}
		for _, n := range c.Nodes {
			locked(n, func(n *Node) { n.applyMoveEntry(cat, entry) })
		}
		share := replica.PlaceCategory(c.inst, cat, mem.NodesOf(to), replica.DefaultConfig())
		for _, n := range c.Nodes {
			var hs []protocol.Holder
			locked(n, func(n *Node) { hs = n.holders.of(cat).Holders })
			for _, h := range hs {
				if !slices.Equal(h.Docs, share[h.Node]) {
					t.Fatalf("node %d's view of the moved category: holder %d has %v, PlaceCategory gives %v",
						n.id, h.Node, h.Docs, share[h.Node])
				}
			}
			checkQuery(t, c, n, cat, 1+rng.Intn(5))
		}
		checkNoTimers(t, c)
	})
}

// TestEmptyAndShortCategories: a query for a category nothing is placed
// in is Done at once with no documents and sends no frame; m = 5 on a
// category of three documents returns all three, Done, well inside its
// deadline.
func TestEmptyAndShortCategories(t *testing.T) {
	sh := Shape{Documents: 60, Categories: 30, Nodes: 20, Clusters: 3, Seed: 3}
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1})
	var empty, short catalog.CategoryID = -1, -1
	for _, cg := range c.inst.Catalog.Cats {
		switch len(cg.Docs) {
		case 0:
			empty = cg.ID
		case 3:
			short = cg.ID
		}
	}
	if empty < 0 || short < 0 {
		t.Fatalf("shape has no empty (%d) or three-document (%d) category", empty, short)
	}
	n := c.Nodes[7]

	bytesOut := n.Stats()["wire_bytes_out"]
	out, err := n.Query(empty, 1, 5*time.Second)
	if err != nil || !out.Done || len(out.Docs) != 0 {
		t.Fatalf("empty category: %v, done %v, docs %v; want done with nothing", err, out.Done, out.Docs)
	}
	if got := n.Stats()["wire_bytes_out"]; got != bytesOut {
		t.Errorf("empty-category query moved wire_bytes_out %d → %d", bytesOut, got)
	}

	const deadline = 5 * time.Second
	start := time.Now()
	out, err = n.Query(short, 5, deadline)
	if err != nil || !out.Done || len(out.Docs) != 3 {
		t.Fatalf("m = 5 on three documents: %v, done %v, docs %v; want all three, done", err, out.Done, out.Docs)
	}
	if took := time.Since(start); took > deadline/10 {
		t.Errorf("m = 5 on three documents took %v of its %v deadline", took, deadline)
	}
	checkNoTimers(t, c)
}
