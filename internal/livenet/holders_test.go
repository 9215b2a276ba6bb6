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

// viewDocs reads node k's documents in a holder list, nil when it is
// absent.
func viewDocs(hs []protocol.Holder, k model.NodeID) []catalog.DocID {
	for _, h := range hs {
		if h.Node == k {
			return h.Docs
		}
	}
	return nil
}

// checkViewMatchesStores: every node aliases one holder view, sorted by
// node, in which node k's documents of category c are exactly its
// byCat[c], in order, and Placed counts the distinct documents all
// nodes hold of c.
func checkViewMatchesStores(t *testing.T, c *Cluster) {
	t.Helper()
	base := c.Nodes[0].holders.base
	for _, n := range c.Nodes {
		if &n.holders.base[0] != &base[0] {
			t.Fatalf("node %d has a private holder view; Launch shares one", n.id)
		}
	}
	for _, cg := range c.inst.Catalog.Cats {
		hs := base[cg.ID].Holders
		if !slices.IsSortedFunc(hs, func(a, b protocol.Holder) int { return int(a.Node) - int(b.Node) }) {
			t.Fatalf("category %d: view %v not sorted by node", cg.ID, hs)
		}
		placed := map[catalog.DocID]bool{}
		for _, n := range c.Nodes {
			var held []catalog.DocID
			locked(n, func(n *Node) { held = slices.Clone(n.byCat[cg.ID]) })
			if got := viewDocs(hs, n.id); !slices.Equal(got, held) {
				t.Errorf("category %d node %d: view says %v, store holds %v", cg.ID, n.id, got, held)
			}
			for _, d := range held {
				placed[d] = true
			}
		}
		if got := base[cg.ID].Placed; got != len(placed) {
			t.Errorf("category %d: view places %d documents, stores hold %d", cg.ID, got, len(placed))
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

// TestHolderViewFollowsMoves: every node, adapting or not, makes a
// moved category's view the placement PlaceCategory computes over the
// gaining cluster's launch members, and keeps directing its entry
// queries by it. Neither touches the shared base.
func TestHolderViewFollowsMoves(t *testing.T) {
	sh := Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9}
	for _, adapt := range []bool{true, false} {
		name := "no adaptation"
		if adapt {
			name = "adaptation"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{CacheBytes: -1}
			if adapt {
				opts.Membership = true
				opts.Adaptation = &AdaptConfig{Interval: time.Hour}
			}
			c := launchOverMemnet(t, sh, nil, memnet.New(), opts)
			n, cat := c.Nodes[3], bigCategory(c.inst)
			m := protocol.QueryMsg{Category: cat, Want: 1, Hops: 1, Entry: true}
			var to model.ClusterID
			var got, launched protocol.View
			var share map[model.NodeID][]catalog.DocID
			locked(n, func(n *Node) {
				to = 1 - n.dcrt[cat].Cluster
				n.applyMoveEntry(cat, protocol.DCRTEntry{Cluster: to, MoveCounter: 1})
				got, launched = n.holders.of(cat), n.holders.base[cat]
				share = replica.PlaceCategory(n.inst, cat, n.members[to], replica.DefaultConfig())
				var ask []model.NodeID
				protocol.Forward(n.id, m, nil, got, n.book.has, func(id model.NodeID) { ask = append(ask, id) })
				if len(ask) != 1 || viewDocs(got.Holders, ask[0]) == nil {
					t.Errorf("after the move: Forward asks %v, want one holder of the share", ask)
				}
			})
			var want []protocol.Holder
			for k := range c.Nodes {
				if docs := share[model.NodeID(k)]; len(docs) > 0 {
					want = append(want, protocol.Holder{Node: model.NodeID(k), Docs: docs})
				}
			}
			if len(want) == 0 || !slices.EqualFunc(got.Holders, want, sameHolder) {
				t.Fatalf("view after the move %v, want PlaceCategory's share %v", got.Holders, want)
			}
			if got.Placed != len(c.inst.Catalog.Cats[cat].Docs) {
				t.Errorf("view after the move places %d documents, the category has %d", got.Placed, len(c.inst.Catalog.Cats[cat].Docs))
			}
			if slices.EqualFunc(launched.Holders, want, sameHolder) {
				t.Fatal("the launched view already equals the moved placement: the check proves nothing")
			}
		})
	}
}

func sameHolder(a, b protocol.Holder) bool { return a.Node == b.Node && slices.Equal(a.Docs, b.Docs) }
