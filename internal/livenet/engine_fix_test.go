package livenet

import (
	"runtime"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
)

// Regression tests for the bug crop the chaos harness surfaced: query-id
// uniqueness, and the requester cache indexing multi-category documents
// under only their first category.

// TestQueryIDUniqueWithinNode pins what a query id must be: unique in
// its origin's table, which is keyed by id. The pre-fix scheme
// (`nextQuery<<16 | id&0xffff`) also minted identical ids on nodes whose
// ids agree mod 65536, which mattered only while intermediate nodes kept
// a duplicate-suppression set; under the serve-or-redirect rule no node
// keeps state for a query it did not issue, so ids from different nodes
// may coincide.
func TestQueryIDUniqueWithinNode(t *testing.T) {
	const ids = 100_000
	n := &Node{}
	seen := make(map[uint64]struct{}, ids)
	for i := 0; i < ids; i++ {
		id := n.nextQueryID()
		if _, dup := seen[id]; dup {
			t.Fatalf("node repeated query id %d after %d ids", id, i)
		}
		seen[id] = struct{}{}
	}
}

// multiCatInstance generates a model whose catalog is guaranteed to
// contain two-category documents.
func multiCatInstance(t *testing.T) (*model.Instance, *catalog.Document) {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = 200
	cfg.Catalog.NumCats = 10
	cfg.Catalog.MultiCatFraction = 1.0
	cfg.NumNodes = 4
	cfg.NumClusters = 2
	cfg.Seed = 77
	inst, err := model.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inst.Catalog.Docs {
		if len(inst.Catalog.Docs[i].Categories) >= 2 {
			return inst, &inst.Catalog.Docs[i]
		}
	}
	t.Fatal("no multi-category document generated")
	return nil, nil
}

// TestCacheDocsIndexesAllCategories pins the cache-index fix: a cached
// multi-category document must be found by lookup under EVERY one of
// its categories, not only Categories[0] — the pre-fix behavior made
// repeat queries in the doc's other categories permanent cache misses.
// The fix now lives in cacheState.add (cachestate.go).
func TestCacheDocsIndexesAllCategories(t *testing.T) {
	inst, doc := multiCatInstance(t)
	cs, err := newCacheState(10 * doc.Size)
	if err != nil {
		t.Fatal(err)
	}

	cs.add(inst, map[catalog.DocID]bool{doc.ID: true})
	for _, cat := range doc.Categories {
		got := cs.lookup(cat, 1)
		if len(got) != 1 || got[0] != doc.ID {
			t.Errorf("cached doc %d invisible under its category %d (got %v)",
				doc.ID, cat, got)
		}
	}

	// Consistent pruning: evict the doc by flooding the cache, then
	// every category's index must drop it on the next read.
	for i := range inst.Catalog.Docs {
		d := &inst.Catalog.Docs[i]
		if d.ID != doc.ID {
			cs.add(inst, map[catalog.DocID]bool{d.ID: true})
		}
	}
	if cs.docs.Peek(doc.ID) {
		t.Skip("flooding did not evict the doc; cache larger than expected")
	}
	for _, cat := range doc.Categories {
		for _, d := range cs.lookup(cat, 100) {
			if d == doc.ID {
				t.Errorf("evicted doc %d still served from category %d index", doc.ID, cat)
			}
		}
		for _, d := range cs.catIndex(cat) {
			if d == doc.ID {
				t.Errorf("evicted doc %d not pruned from category %d index", doc.ID, cat)
			}
		}
	}
}

// TestCachedInDropsDuplicateIndexEntries pins the dedup half of the
// pruning fix: a doc listed twice in one category index (evict + re-add
// histories) is returned once and the index collapses to one entry.
func TestCachedInDropsDuplicateIndexEntries(t *testing.T) {
	inst, doc := multiCatInstance(t)
	cs, err := newCacheState(10 * doc.Size)
	if err != nil {
		t.Fatal(err)
	}
	_ = inst
	cat := doc.Categories[0]
	cs.seedCatIndex(cat, []catalog.DocID{doc.ID, doc.ID, doc.ID})
	cs.docs.Insert(doc.ID, doc.Size)
	if got := cs.lookup(cat, 10); len(got) != 1 || got[0] != doc.ID {
		t.Fatalf("lookup over a duplicated index returned %v, want [%d]", got, doc.ID)
	}
	if idx := cs.catIndex(cat); len(idx) != 1 {
		t.Fatalf("index not collapsed after read: %v", idx)
	}
}

// twoNodeShape is the smallest deployment a query can cross: one
// cluster, two peers that are each other's only neighbor.
func twoNodeShape() Shape {
	return Shape{Documents: 16, Categories: 2, Nodes: 2, Clusters: 1, Seed: 9}
}

// TestHugeWantDoesNotPresizeResultSet pins the "give me everything"
// fix: QueryContext used to size its result map from the caller's m, and
// Go allocates a map hint eagerly — m = 1<<30 asked the runtime for tens
// of gigabytes before a byte was sent. The answer is bounded by what the
// category places: the call returns every document of it having
// allocated next to nothing.
func TestHugeWantDoesNotPresizeResultSet(t *testing.T) {
	c := launchOverMemnet(t, twoNodeShape(), nil, memnet.New(), Options{CacheBytes: -1})
	n := c.Nodes[0]
	cat := bigCategory(c.inst)
	if _, err := n.Query(cat, 1, 5*time.Second); err != nil { // warm the links
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := n.Query(cat, 1<<30, 5*time.Second)
	runtime.ReadMemStats(&after)
	if err != nil || !out.Done || out.Results != len(c.inst.Catalog.Cats[cat].Docs) || out.Results != len(out.Docs) {
		t.Fatalf("outcome = %+v, %v; want all %d documents of the category, done", out, err, len(c.inst.Catalog.Cats[cat].Docs))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a query with m = 1<<30 allocated %d bytes, want < 1 MB", grew)
	}
}
