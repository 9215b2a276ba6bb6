package livenet

// The requester-side document cache (§7 viii), restructured for the
// sharded engine: one node-global concurrent cache instead of per-shard
// caches. Per-shard caches would re-open the multi-category index bug
// fixed in PR 5 — a document cached by a query on shard A must be a hit
// for a repeat query in ANY of its categories, which round-robin shard
// selection may register on shard B. The document store is a
// lock-striped cache (internal/cache.Striped); the per-category index
// is striped by category. Cache lookups happen in the caller goroutine
// (engine.go), so a cache hit never touches any loop at all.

import (
	"sync"

	"p2pshare/internal/cache"
	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// cacheIdxStripes stripes the per-category index; category ids hash
// across stripes so concurrent queries in different categories do not
// contend.
const cacheIdxStripes = 8

// cacheState is one immutable-identity cache generation: SetCacheCapacity
// swaps the whole state atomically (Node.cacheSt), so readers never see
// a half-replaced cache.
type cacheState struct {
	docs *cache.Striped
	idx  [cacheIdxStripes]cacheIdx
	// capBytes remembers the configured byte capacity (surfaced as the
	// cache_capacity_bytes stat; the striped cache splits it internally).
	capBytes int64
}

type cacheIdx struct {
	mu    sync.Mutex
	byCat map[catalog.CategoryID][]catalog.DocID
}

// newCacheState builds a cache generation; nil (no caching) is
// represented by a nil *cacheState, not a zero-capacity one.
func newCacheState(policy cache.Policy, bytes int64) (*cacheState, error) {
	docs, err := cache.NewStriped(policy, bytes)
	if err != nil {
		return nil, err
	}
	cs := &cacheState{docs: docs, capBytes: bytes}
	for i := range cs.idx {
		cs.idx[i].byCat = make(map[catalog.CategoryID][]catalog.DocID)
	}
	return cs, nil
}

func (cs *cacheState) idxFor(cat catalog.CategoryID) *cacheIdx {
	return &cs.idx[mixQ(uint64(cat))%cacheIdxStripes]
}

// lookup returns up to max currently-cached documents of a category,
// pruning evicted and duplicate ids from the per-category index as it
// goes (a doc evicted and re-cached can appear twice in one list; the
// dedup keeps the index and the returned set consistent).
func (cs *cacheState) lookup(cat catalog.CategoryID, max int) []catalog.DocID {
	ix := cs.idxFor(cat)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	list := ix.byCat[cat]
	live := list[:0]
	seen := make(map[catalog.DocID]struct{}, len(list))
	var out []catalog.DocID
	for _, d := range list {
		if _, dup := seen[d]; dup {
			continue // duplicate index entry; prune
		}
		if !cs.docs.Peek(d) {
			continue // evicted; prune
		}
		seen[d] = struct{}{}
		live = append(live, d)
		if len(out) < max {
			out = append(out, d)
		}
	}
	if len(live) == 0 && list != nil {
		delete(ix.byCat, cat)
		return out
	}
	ix.byCat[cat] = live
	return out
}

// add inserts received result documents, indexing each under EVERY
// category it belongs to. Indexing only under Categories[0] (the
// pre-fix behavior) made repeat queries in a multi-category doc's other
// categories permanent cache misses — the doc was resident but
// invisible to lookup. Stale index entries left by eviction are pruned
// by lookup on the next read of each list.
func (cs *cacheState) add(inst *model.Instance, docs map[catalog.DocID]bool) {
	for d := range docs {
		doc := inst.Catalog.Doc(d)
		if cs.docs.Peek(d) {
			continue
		}
		cs.docs.Insert(d, doc.Size)
		if cs.docs.Peek(d) {
			for _, cat := range doc.Categories {
				ix := cs.idxFor(cat)
				ix.mu.Lock()
				ix.byCat[cat] = append(ix.byCat[cat], d)
				ix.mu.Unlock()
			}
		}
	}
}

// indexSize counts index entries across all stripes (the bounded-table
// invariant the soak harness checks as cache_index).
func (cs *cacheState) indexSize() int {
	total := 0
	for i := range cs.idx {
		cs.idx[i].mu.Lock()
		for _, docs := range cs.idx[i].byCat {
			total += len(docs)
		}
		cs.idx[i].mu.Unlock()
	}
	return total
}

// catIndex snapshots one category's raw index list (tests).
func (cs *cacheState) catIndex(cat catalog.CategoryID) []catalog.DocID {
	ix := cs.idxFor(cat)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return append([]catalog.DocID(nil), ix.byCat[cat]...)
}

// seedCatIndex overwrites one category's raw index list (tests).
func (cs *cacheState) seedCatIndex(cat catalog.CategoryID, docs []catalog.DocID) {
	ix := cs.idxFor(cat)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.byCat[cat] = docs
}

// cacheDocs folds completed-query documents into the current cache
// generation (no-op when caching is disabled). Safe from any goroutine.
func (n *Node) cacheDocs(docs map[catalog.DocID]bool) {
	if cs := n.cacheSt.Load(); cs != nil && len(docs) > 0 {
		cs.add(n.inst, docs)
	}
}
