package livenet

// The sharded query engine. Node protocol state is partitioned across P
// engine shards so a node's query work uses the whole machine instead of
// serializing on one core. A shard is a lock partition, not a goroutine:
// it owns a slice of the pending-query table behind one mutex, and
// whichever goroutine holds the work — the connection reader that
// decoded a frame, the caller issuing a query, the timerwheel running a
// sweep — locks the partition and runs it.
//
// Ownership map:
//
//	shard s (of P)    under s.mu: pending queries whose query id
//	                  satisfies int(id&shardIDMask)%P == s, the shard's
//	                  rng and query-id sequence. Under s.hitsMu (a
//	                  leaf): per-category hit counters, drained by the
//	                  adaptation report under routeMu.Lock.
//	routeMu.Lock      control state: membership, adaptation, address
//	                  book, byCat, DCRT, NRT, holder view, the node rng —
//	                  everything low-rate, written by whichever goroutine
//	                  the work arrived on (a reader's control frame, an
//	                  API caller, a tick); see livenet.go.
//	caller goroutine  admission (atomic CAS), requester-cache lookup, the
//	                  route check, and registering its own query.
//
// Frame dispatch: a connection reader runs a decoded QueryMsg/ResultMsg
// itself, on the shard owning its query id, and every other control
// frame itself under routeMu.Lock (routeInbound). Running a query takes
// no shard lock: a node keeps no per-query state for queries it did not
// issue, since the placement rule (protocol.Forward) cannot loop. A
// query id is minted with its owning shard's index in the low
// shardIDBits bits, so any node — even one running a different shard
// count — routes the id to one deterministic shard, and results for a
// query come home to the shard that registered it.
//
// Locking: the order is s.mu → routeMu. Shard code reads the control
// state under routeMu.RLock, possibly while holding s.mu; whoever holds
// routeMu.Lock must never take a shard lock while it does (a reader
// holding that shard may be waiting for RLock). send() assumes routeMu
// is held in either mode. Nothing under either lock blocks: sends
// enqueue or drop, results go to a buffered channel, the sweep only
// TryLocks.
//
// Shutdown: there is nothing to stop. close(done) ends the accept loop
// and, with the connections closed, the readers; shard state simply
// stops being visited, and a caller waiting on its result channel leaves
// through its done arm, preferring a result delivered just before.

import (
	"math/rand"
	"sync"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

const (
	// shardIDBits low bits of every query id carry the minting shard's
	// index; shardIDMask extracts them. Foreign nodes with a different
	// shard count P route by int(id&shardIDMask)%P, which is stable for
	// any P ≤ maxShards.
	shardIDBits = 6
	shardIDMask = (1 << shardIDBits) - 1
	// maxShards bounds a node's shard count to the id-encoding space.
	maxShards = 1 << shardIDBits
)

// engineShard owns one partition of a node's query state.
type engineShard struct {
	n   *Node
	idx int

	// mu guards the fields below, down to rng.
	mu        sync.Mutex
	pending   map[uint64]*pendingQuery
	nextQuery uint64
	rng       *rand.Rand

	// hits counts per-category entry requests into this shard (the
	// §6.1.2 monitoring counter). Readers increment it, the adaptation
	// report drains it — under routeMu.Lock, where it may not take mu;
	// hence a mutex of its own.
	hits   map[catalog.CategoryID]int64
	hitsMu sync.Mutex
}

// newShards builds the node's shard set.
func newShards(n *Node, count int, seed int64) []*engineShard {
	shards := make([]*engineShard, count)
	for i := range shards {
		shards[i] = &engineShard{
			n:       n,
			idx:     i,
			pending: make(map[uint64]*pendingQuery),
			rng:     rand.New(rand.NewSource(seed + int64(n.id)*int64(count) + int64(i) + 7)),
			hits:    make(map[catalog.CategoryID]int64),
		}
	}
	return shards
}

// shardFor routes a query id to its owning shard.
func (n *Node) shardFor(id uint64) *engineShard {
	return n.shards[int(id&shardIDMask)%len(n.shards)]
}

// pickShard round-robins new queries across shards. Selection is NOT by
// category: a hot category would pin one shard on every node and
// re-serialize exactly the load sharding exists to spread.
func (n *Node) pickShard() *engineShard {
	return n.shards[n.nextShard.Add(1)%uint64(len(n.shards))]
}

// trySweep runs the housekeeping sweep if the shard is free. It is
// called on the timerwheel goroutine, which must never wait: a shard busy
// with a frame gets the next tick ≤ sweepInterval later, which the
// sweep's semantics tolerate.
func (s *engineShard) trySweep(now time.Time) {
	if !s.mu.TryLock() {
		s.n.stats.Add("shard_sweep_skips", 1)
		return
	}
	s.sweep(now)
	s.mu.Unlock()
}

// addHit bumps the §6.1.2 per-category request counter.
func (s *engineShard) addHit(cat catalog.CategoryID) {
	s.hitsMu.Lock()
	s.hits[cat]++
	s.hitsMu.Unlock()
}

// drainHits folds every shard's hit counters into one map and resets
// them — one epoch's measurement for the adaptation report.
func (n *Node) drainHits() map[catalog.CategoryID]int64 {
	out := make(map[catalog.CategoryID]int64)
	for _, s := range n.shards {
		s.hitsMu.Lock()
		if len(s.hits) > 0 {
			for c, h := range s.hits {
				out[c] += h
			}
			s.hits = make(map[catalog.CategoryID]int64)
		}
		s.hitsMu.Unlock()
	}
	return out
}

// mintID mints a query id owned by this shard: the splitmix64-mixed
// (salt, sequence) id with its low bits overwritten by the shard index.
// Masking costs shardIDBits of the 64-bit collision space (ids keep 58
// high bits of entropy across nodes) and can collide within one shard's
// live pending table, so minting re-rolls on collision.
func (s *engineShard) mintID() uint64 {
	for {
		s.nextQuery++
		seq := uint64(s.idx)<<48 ^ s.nextQuery
		id := (queryID(s.n.querySalt, seq) &^ uint64(shardIDMask)) | uint64(s.idx)
		if _, taken := s.pending[id]; !taken {
			return id
		}
	}
}

// register installs a new pending query on this shard and issues its
// entry message. The query asks for want documents and is done at need,
// min(want, documents placed). Caller holds mu, has passed admission
// and holds the in-flight slot.
func (s *engineShard) register(cat catalog.CategoryID, want, need int, docs map[catalog.DocID]bool,
	ch chan QueryOutcome, deadline time.Time, hasDeadline bool) uint64 {
	id := s.mintID()
	now := time.Now()
	pq := &pendingQuery{
		id:       id,
		cat:      cat,
		want:     want,
		need:     need,
		docs:     docs,
		ch:       ch,
		deadline: now.Add(maxPendingAge),
		lastSend: now,
	}
	if hasDeadline {
		pq.deadline = deadline.Add(pendingGrace)
	}
	s.pending[id] = pq
	s.sendQuery(pq)
	return id
}

// sendQuery (re)issues the query to a random member of the serving
// cluster, read off the current tables: a member this node can address
// (the static NRT priming lists peers that may never have joined this
// deployment, and a query sent to one of those is a guaranteed
// timeout), or any NRT member when none is addressable. It reports false,
// sending nothing, when the category has no route. The full demand goes
// out even when the cache primed a partial answer: the entry member picks
// who answers by the demand, and a node that answers returns at most that
// many documents. Caller holds mu.
func (s *engineShard) sendQuery(pq *pendingQuery) bool {
	n := s.n
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	entry, ok := n.dcrt[pq.cat]
	if !ok {
		return false
	}
	members := n.nrt[entry.Cluster]
	count := 0
	for _, mb := range members {
		if n.book.has(mb) {
			count++
		}
	}
	var target model.NodeID
	switch {
	case count > 0:
		k := s.rng.Intn(count)
		for _, mb := range members {
			if n.book.has(mb) {
				if k == 0 {
					target = mb
					break
				}
				k--
			}
		}
	case len(members) > 0:
		target = members[s.rng.Intn(len(members))]
	default:
		return false
	}
	n.send(target, protocol.QueryMsg{
		ID: pq.id, Category: pq.cat, Want: pq.want, Origin: n.id, Hops: 1, Entry: true,
	})
	return true
}

// sweep advances this shard's pending queries: expired entries deliver
// their partial outcome, and silent queries re-send to a serving-cluster
// member chosen from the current tables, so a peer the failure detector
// evicted since the last send is no longer a candidate. A query with no
// route left is not re-sent and waits out its deadline. Caller holds mu.
func (s *engineShard) sweep(now time.Time) {
	for _, pq := range s.pending {
		if now.After(pq.deadline) {
			s.finishPending(pq, false)
			s.n.stats.Add("pending_expired", 1)
			continue
		}
		if pq.received == 0 && pq.resends < maxResends && now.Sub(pq.lastSend) > resendAfter && s.sendQuery(pq) {
			pq.resends++
			pq.lastSend = now
			s.n.stats.Add("query_resends", 1)
		}
	}
}

// handleQuery runs the §3.3 target-node logic: protocol.Forward says
// whom the node asks and whether it answers from its store. A query for
// a category this node has no DCRT entry for is dropped (and counted)
// instead of being misrouted into cluster 0. No shard state is touched
// but the hit counter; matching and asking run under routeMu.RLock.
func (s *engineShard) handleQuery(m protocol.QueryMsg) {
	n := s.n
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	if _, ok := n.dcrt[m.Category]; !ok {
		n.stats.Add("drop_no_route", 1)
		return
	}
	if m.Entry {
		// §6.1.2 monitoring: count the request once per cluster entry, so
		// the adaptation layer measures category demand, not how many
		// holders answered.
		s.addHit(m.Category)
	}
	docs := n.byCat[m.Category]
	// Box the forwarded message once, and only when the rule asks
	// someone: send takes `any`, so a struct literal per send would
	// re-box per holder. The copy is never an entry frame, so an asked
	// holder counts no hit and asks nobody unless its store is stale.
	var fwd any
	answers := protocol.Forward(n.id, m, docs, n.holders.of(m.Category), n.book.has, func(to model.NodeID) {
		if fwd == nil {
			fwd = protocol.QueryMsg{ID: m.ID, Category: m.Category, Want: m.Want, Origin: m.Origin, Hops: m.Hops + 1}
		}
		n.send(to, fwd)
	})
	if take := min(m.Want, len(docs)); answers && take > 0 {
		// Exact-capacity allocation: the hot path pays one slice alloc,
		// never an append-grow chain (pinned by TestHandleQueryAllocs).
		n.served.Add(1)
		n.send(m.Origin, protocol.ResultMsg{
			ID: m.ID, Docs: append(make([]catalog.DocID, 0, take), docs[:take]...), Hops: m.Hops, From: n.id,
		})
	}
}

// handleResult folds an inbound result into the owning pending query,
// up to the m documents it asks for (holders asked together may answer
// more between them), and completes it at the documents it needs.
func (s *engineShard) handleResult(m protocol.ResultMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pq, ok := s.pending[m.ID]
	if !ok {
		return
	}
	pq.received++
	for _, d := range m.Docs {
		if len(pq.docs) >= pq.want {
			break
		}
		pq.docs[d] = true
	}
	if m.Hops > pq.hops {
		pq.hops = m.Hops
	}
	if len(pq.docs) >= pq.need {
		// Report the farthest contributing result, not whichever message
		// happened to complete the set.
		s.finishPending(pq, true)
	}
}

// finishPending delivers a query's outcome exactly once and releases its
// slot. Caller holds mu.
func (s *engineShard) finishPending(pq *pendingQuery, done bool) {
	s.n.cacheDocs(pq.docs)
	out := pq.result(done)
	select {
	case pq.ch <- out:
	default: // caller abandoned; the slot still frees
	}
	delete(s.pending, pq.id)
	s.n.inflight.Add(-1)
}
