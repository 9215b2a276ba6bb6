package livenet

// The sharded query engine. Node protocol state is partitioned across P
// engine shards so a node's query work uses the whole machine instead of
// serializing on one core. A shard is a lock partition, not a goroutine:
// it owns a slice of the pending-query table and of the flood-dedup seen
// set behind one mutex, and whichever goroutine holds the work — the
// connection reader that decoded a frame, the caller issuing a query,
// the timerwheel running a sweep — locks the partition and runs it.
//
// Ownership map:
//
//	shard s (of P)    under s.mu: pending queries and seen entries whose
//	                  query id satisfies int(id&shardIDMask)%P == s, the
//	                  shard's rng and query-id sequence. Under s.hitsMu
//	                  (a leaf): per-category hit counters, drained by
//	                  adaptation from the control loop.
//	control loop      membership, adaptation, address book, DT/byCat,
//	                  DCRT, NRT — everything low-rate; see livenet.go.
//	caller goroutine  admission (atomic CAS), requester-cache lookup, the
//	                  route snapshot, and registering its own query.
//
// Frame dispatch: a connection reader runs a decoded QueryMsg/ResultMsg
// itself, on the shard owning its query id, and hands handleQuery the
// envelope's sender so the flood is not echoed back to it; every other
// message type goes to the control loop. A query id is minted with its
// owning shard's index in the low shardIDBits bits, so any node — even
// one running a different shard count — routes the id to one
// deterministic shard, and results for a query come home to the shard
// that registered it.
//
// Locking: the order is s.mu → routeMu. Shard code reads the
// control-owned routing state (book, DCRT, NRT, byCat) under
// routeMu.RLock, possibly while holding s.mu; the control loop holds
// routeMu.Lock for every event it processes, is the sole writer, and
// must never take a shard lock while it does (a reader holding that
// shard may be waiting for RLock). send() assumes routeMu is held in
// either mode. Nothing under either lock blocks: sends enqueue or drop,
// results go to a buffered channel, the sweep only TryLocks.
//
// Shutdown: there is nothing to stop. close(done) ends the control and
// accept loops and the readers; shard state simply stops being visited,
// and a caller waiting on its result channel leaves through its done
// arm, preferring a result delivered just before.

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
	seenCur   map[uint64]struct{}
	seenPrev  map[uint64]struct{}
	nextQuery uint64
	rng       *rand.Rand

	// hits counts per-category entry requests into this shard (the
	// §6.1.2 monitoring counter). Readers increment it, the control
	// loop's adaptation report drains it — under routeMu.Lock, where it
	// may not take mu; hence a mutex of its own.
	hits   map[catalog.CategoryID]int64
	hitsMu sync.Mutex
}

// newShards builds the node's shard set.
func newShards(n *Node, count int, seed int64) []*engineShard {
	shards := make([]*engineShard, count)
	for i := range shards {
		shards[i] = &engineShard{
			n:        n,
			idx:      i,
			pending:  make(map[uint64]*pendingQuery),
			seenCur:  make(map[uint64]struct{}),
			seenPrev: make(map[uint64]struct{}),
			rng:      rand.New(rand.NewSource(seed + int64(n.id)*int64(count) + int64(i) + 7)),
			hits:     make(map[catalog.CategoryID]int64),
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

// markSeen records a flooded query id and reports whether the shard had
// seen it already. An id always routes to the same shard of a node, so
// per-shard dedup is exact, not probabilistic. Caller holds mu.
func (s *engineShard) markSeen(id uint64) (dup bool) {
	before := len(s.seenCur)
	s.seenCur[id] = struct{}{}
	if len(s.seenCur) == before {
		return true
	}
	_, dup = s.seenPrev[id]
	return dup
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
// entry message. Caller holds mu, has passed admission and holds the
// in-flight slot.
func (s *engineShard) register(cat catalog.CategoryID, want int, docs map[catalog.DocID]bool,
	ch chan QueryOutcome, deadline time.Time, hasDeadline bool, members []model.NodeID) uint64 {
	id := s.mintID()
	now := time.Now()
	pq := &pendingQuery{
		id:       id,
		cat:      cat,
		want:     want,
		docs:     docs,
		ch:       ch,
		deadline: now.Add(maxPendingAge),
		lastSend: now,
		entry:    members,
	}
	if hasDeadline {
		pq.deadline = deadline.Add(pendingGrace)
	}
	s.pending[id] = pq
	s.sendQuery(pq)
	return id
}

// sendQuery (re)issues the query to a random reachable member of the
// serving cluster. The full demand goes out even when the cache primed a
// partial answer: intermediate nodes subtract their own matches from Want
// before forwarding, so a reduced demand would degenerate the flood and
// could strand the query one hop in. Caller holds mu.
func (s *engineShard) sendQuery(pq *pendingQuery) {
	if len(pq.entry) == 0 {
		return // all targets evicted; the sweep refills or expires
	}
	target := pq.entry[s.rng.Intn(len(pq.entry))]
	n := s.n
	n.routeMu.RLock()
	n.send(target, protocol.QueryMsg{
		ID: pq.id, Category: pq.cat, Want: pq.want, Origin: n.id, Hops: 1, Entry: true,
	})
	n.routeMu.RUnlock()
}

// sweep rotates this shard's seen-set generations and advances its
// pending queries: expired entries deliver their partial outcome, and
// silent queries re-send to another serving-cluster member after the
// resend-target list is pruned against the current membership (peers
// evicted by the failure detector leave the address book; the shard
// catches up here instead of being chased by a cross-shard broadcast).
// Caller holds mu.
func (s *engineShard) sweep(now time.Time) {
	s.seenPrev = s.seenCur
	s.seenCur = make(map[uint64]struct{})
	for _, pq := range s.pending {
		if now.After(pq.deadline) {
			s.finishPending(pq, false)
			s.n.stats.Add("pending_expired", 1)
			continue
		}
		if pq.received == 0 && pq.resends < maxResends && now.Sub(pq.lastSend) > resendAfter {
			s.n.routeMu.RLock()
			s.n.refillEntry(pq)
			s.n.routeMu.RUnlock()
			if len(pq.entry) == 0 {
				continue
			}
			pq.resends++
			pq.lastSend = now
			s.n.stats.Add("query_resends", 1)
			s.sendQuery(pq)
		}
	}
}

// handleQuery runs the §3.3 target-node logic: answer from the local
// store, then send the residual demand where protocol.Forward says — an
// entry member that matched nothing asks one placement holder (its
// holder view), every other case floods the NRT neighbours in the
// serving cluster, a non-entry hop leaving out from, the node the frame
// came from. A query for a category this node has no DCRT entry for is
// dropped (and counted) instead of being misrouted into cluster 0. The
// only shard state a query touches is the seen set, so mu is held for
// the dedup alone; matching and forwarding run under routeMu.RLock.
func (s *engineShard) handleQuery(from model.NodeID, m protocol.QueryMsg) {
	s.mu.Lock()
	dup := s.markSeen(m.ID)
	s.mu.Unlock()
	if dup {
		return
	}
	n := s.n
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	entry, ok := n.dcrt[m.Category]
	if !ok {
		n.stats.Add("drop_no_route", 1)
		return
	}
	if m.Entry {
		// §6.1.2 monitoring: count the request once per cluster entry, so
		// the adaptation layer measures category demand, not flood width.
		s.addHit(m.Category)
	}
	var matches []catalog.DocID
	if docs := n.byCat[m.Category]; len(docs) > 0 {
		// Exact-capacity allocation: the hot path pays one slice alloc,
		// never an append-grow chain (pinned by TestHandleQueryAllocs).
		take := m.Want
		if take > len(docs) {
			take = len(docs)
		}
		if take > 0 {
			matches = append(make([]catalog.DocID, 0, take), docs[:take]...)
		}
	}
	if len(matches) > 0 {
		n.served.Add(1)
		n.send(m.Origin, protocol.ResultMsg{
			ID: m.ID, Docs: matches, Hops: m.Hops, From: n.id,
		})
	}
	r := protocol.Forward(n.id, m, len(matches), n.holders.of(m.Category), n.book.has)
	nbs := n.nrt[entry.Cluster]
	if r.Want == 0 || !r.Direct && len(nbs) == 0 {
		return
	}
	// Box the forwarded message ONCE: send takes `any`, so a struct
	// literal at each call site would re-box per neighbor — one
	// interface allocation per flood edge on the hottest path. The
	// copy is never an entry frame, so a directed holder counts no hit
	// and, should its store be stale, floods.
	var fwd any = protocol.QueryMsg{
		ID: m.ID, Category: m.Category, Want: r.Want,
		Origin: m.Origin, Hops: m.Hops + 1,
	}
	if r.Direct {
		n.send(r.To, fwd)
		return
	}
	for _, nb := range nbs {
		if nb == from && r.SkipSender {
			continue
		}
		n.send(nb, fwd)
	}
}

// handleResult folds an inbound result into the owning pending query.
func (s *engineShard) handleResult(m protocol.ResultMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pq, ok := s.pending[m.ID]
	if !ok {
		return
	}
	pq.received++
	for _, d := range m.Docs {
		pq.docs[d] = true
	}
	if m.Hops > pq.hops {
		pq.hops = m.Hops
	}
	if len(pq.docs) >= pq.want {
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
