package livenet

import (
	"slices"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
)

// viewCount reads node k's count in a holder list, 0 when it is absent.
func viewCount(hs []protocol.Holder, k model.NodeID) int {
	for _, h := range hs {
		if h.Node == k {
			return h.Docs
		}
	}
	return 0
}

// checkViewMatchesStores: every node aliases one holder view, sorted by
// node, in which node k appears for category c with count n exactly
// when its byCat[c] holds n documents.
func checkViewMatchesStores(t *testing.T, c *Cluster) {
	t.Helper()
	base := c.Nodes[0].holders.base
	for _, n := range c.Nodes {
		if &n.holders.base[0] != &base[0] {
			t.Fatalf("node %d has a private holder view; Launch shares one", n.id)
		}
	}
	for _, cg := range c.inst.Catalog.Cats {
		hs := base[cg.ID]
		if !slices.IsSortedFunc(hs, func(a, b protocol.Holder) int { return int(a.Node) - int(b.Node) }) {
			t.Fatalf("category %d: view %v not sorted by node", cg.ID, hs)
		}
		for _, n := range c.Nodes {
			var held int
			runCmd(t, n, func(n *Node) { held = len(n.byCat[cg.ID]) })
			if got := viewCount(hs, n.id); got != held {
				t.Errorf("category %d node %d: view says %d documents, store holds %d", cg.ID, n.id, got, held)
			}
		}
	}
}

func TestHolderViewMatchesStores(t *testing.T) {
	sh := Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9}
	t.Run("placement", func(t *testing.T) {
		checkViewMatchesStores(t, launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1}))
	})
	t.Run("contributions", func(t *testing.T) {
		checkViewMatchesStores(t, launchUnplaced(t, sh))
	})
}

// launchUnplaced launches sh over memnet with place == nil: every node
// holds its own contributions only.
func launchUnplaced(t *testing.T, sh Shape) *Cluster {
	t.Helper()
	inst, assign, _, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Launch(inst, assign, nil, Options{Seed: sh.Seed, CacheBytes: -1, Hooks: memnetHooks(memnet.New(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestHolderViewFollowsMoves: a node with adaptation on makes a moved
// category's view the placement PlaceCategory computes in the gaining
// cluster; a node without it drops the category from its view, so its
// entry queries for it flood. Neither touches the shared base.
func TestHolderViewFollowsMoves(t *testing.T) {
	sh := Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9}
	move := func(t *testing.T, c *Cluster) (n *Node, cat catalog.CategoryID, to model.ClusterID) {
		n, cat = c.Nodes[3], bigCategory(c.inst)
		runCmd(t, n, func(n *Node) {
			to = 1 - n.dcrt[cat].Cluster
			n.applyMoveEntry(cat, protocol.DCRTEntry{Cluster: to, MoveCounter: 1})
		})
		return n, cat, to
	}

	t.Run("adaptation", func(t *testing.T) {
		c := launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1})
		c.EnableAdaptation(AdaptConfig{Interval: time.Hour})
		n, cat, to := move(t, c)
		var got []protocol.Holder
		var share map[model.NodeID][]catalog.DocID
		runCmd(t, n, func(n *Node) {
			got = n.holders.of(cat)
			share = replica.PlaceCategory(n.inst, cat, n.adapt.members[to], replica.DefaultConfig())
		})
		var want []protocol.Holder
		for k := range c.Nodes {
			if docs := share[model.NodeID(k)]; len(docs) > 0 {
				want = append(want, protocol.Holder{Node: model.NodeID(k), Docs: len(docs)})
			}
		}
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("view after the move %v, want PlaceCategory's share %v", got, want)
		}
		if slices.Equal(n.holders.base[cat], want) {
			t.Fatal("the launched view already equals the moved placement: the check proves nothing")
		}
	})

	t.Run("no adaptation", func(t *testing.T) {
		c := launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1})
		m := protocol.QueryMsg{Want: 1, Entry: true}
		n, cat := c.Nodes[3], bigCategory(c.inst)
		runCmd(t, n, func(n *Node) {
			m.Category = cat
			if r := protocol.Forward(n.id, m, 0, n.holders.of(cat), n.book.has); !r.Direct {
				t.Errorf("before the move: Forward = %+v, want a directed query", r)
			}
		})
		move(t, c)
		runCmd(t, n, func(n *Node) {
			if hs := n.holders.of(cat); len(hs) != 0 {
				t.Errorf("view after the move %v, want none", hs)
			}
			if r := protocol.Forward(n.id, m, 0, n.holders.of(cat), n.book.has); r.Direct {
				t.Errorf("after the move: Forward = %+v, want a flood", r)
			}
			if len(n.holders.base[cat]) == 0 {
				t.Error("the move emptied the shared base")
			}
		})
	})
}
