package livenet

// The sharded query engine. Node protocol state is partitioned across P
// engine shards (ROADMAP item 2: one event loop per node serializes on
// one core; paper-scale live clusters need a node to use the whole
// machine). Each shard owns a slice of the pending-query table and of
// the flood-dedup seen set, runs its own loop and housekeeping sweep,
// and is fed directly by the per-connection reader goroutines — no
// global funnel in the query hot path.
//
// Ownership map:
//
//	shard s (of P)    pending queries and seen entries whose query id
//	                  satisfies int(id&shardIDMask)%P == s; the shard's
//	                  rng, query-id sequence, and per-category hit
//	                  counters (drained by adaptation).
//	control loop      membership, adaptation, address book, DT/byCat,
//	                  DCRT, NRT — everything low-rate; see livenet.go.
//	caller goroutine  admission (atomic CAS), requester-cache lookup,
//	                  and the route snapshot for a new query.
//
// Frame dispatch: a decoded QueryMsg/ResultMsg goes straight to the
// shard owning its query id; every other message type goes to the
// control loop. A query id is minted with its owning shard's index in
// the low shardIDBits bits, so any node — even one running a different
// shard count — routes the id to one deterministic shard, and results
// for a query come home to the shard that registered it.
//
// Locking: shards read the control-owned routing state (book, DCRT,
// NRT, byCat) under routeMu.RLock; the control loop holds routeMu.Lock
// for every event it processes and is the sole writer. send() assumes
// routeMu is held in either mode. The control loop must never block on
// a shard channel while holding the lock (shards may be waiting for an
// RLock); control→shard nudges are non-blocking.
//
// Shutdown: close(done) fans out to every loop; no channel is closed
// besides done, and every blocking channel operation in the API layer
// carries a done arm plus a final non-blocking read so work the loops
// completed just before exiting is still preferred over ErrClosed.

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
	// shardInboxDepth buffers decoded frames per shard between the
	// connection readers and the shard loop.
	shardInboxDepth = 128
)

// shardCmd is a request executed inside one shard's loop.
type shardCmd func(*engineShard)

// engineShard owns one partition of a node's query state.
type engineShard struct {
	n   *Node
	idx int

	inbox chan envelope
	cmds  chan shardCmd

	// Loop-owned state.
	pending   map[uint64]*pendingQuery
	seenCur   map[uint64]struct{}
	seenPrev  map[uint64]struct{}
	nextQuery uint64
	rng       *rand.Rand

	// hits counts per-category entry requests into this shard (the
	// §6.1.2 monitoring counter). The shard loop increments it, the
	// control loop's adaptation report drains it; hence the mutex.
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
			inbox:    make(chan envelope, shardInboxDepth),
			cmds:     make(chan shardCmd, 16),
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

// loop is one shard's event loop: decoded frames and API commands. The
// housekeeping sweep arrives as a command from the node's timerwheel
// registration (offerSweep) — shards no longer own ticker goroutines.
func (s *engineShard) loop() {
	defer s.n.wg.Done()
	for {
		select {
		case env := <-s.inbox:
			s.dispatch(env)
		case cmd := <-s.cmds:
			cmd(s)
		case <-s.n.done:
			return
		}
	}
}

// offerSweep hands the shard a sweep tick without blocking (timerwheel
// callbacks must never block; a shard too busy to take the tick gets the
// next one ≤ sweepInterval later, which the sweep's semantics tolerate).
func (s *engineShard) offerSweep(now time.Time) {
	select {
	case s.cmds <- func(s *engineShard) { s.sweep(now) }:
	default:
		s.n.stats.Add("shard_sweep_skips", 1)
	}
}

// offer is the non-blocking control→shard handoff (stray frames that
// arrived on the control inbox). Dropping is safe — both message kinds
// are best-effort — and counted.
func (s *engineShard) offer(env envelope) {
	select {
	case s.inbox <- env:
	default:
		s.n.stats.Add("shard_inbox_drops", 1)
	}
}

func (s *engineShard) dispatch(env envelope) {
	switch m := env.Msg.(type) {
	case protocol.QueryMsg:
		s.handleQuery(m)
	case protocol.ResultMsg:
		s.handleResult(m)
	}
}

// seenBefore/markSeen dedup flooded query ids within the owning shard —
// an id always routes to the same shard of a node, so per-shard dedup
// is exact, not probabilistic.
func (s *engineShard) seenBefore(id uint64) bool {
	if _, ok := s.seenCur[id]; ok {
		return true
	}
	_, ok := s.seenPrev[id]
	return ok
}

func (s *engineShard) markSeen(id uint64) { s.seenCur[id] = struct{}{} }

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
// entry message. Runs in the shard loop; the caller already passed
// admission and holds the in-flight slot.
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
// could strand the query one hop in.
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

// handleQuery mirrors the simulated overlay's §3.3 target-node logic. A
// query for a category this node has no DCRT entry for is dropped (and
// counted) instead of being misrouted into cluster 0. Runs in the shard
// loop; routing state is read under routeMu.RLock.
func (s *engineShard) handleQuery(m protocol.QueryMsg) {
	if s.seenBefore(m.ID) {
		return
	}
	s.markSeen(m.ID)
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
	if remaining := m.Want - len(matches); remaining > 0 {
		if nbs := n.nrt[entry.Cluster]; len(nbs) > 0 {
			// Box the forwarded message ONCE: send takes `any`, so a
			// struct literal at each call site would re-box per neighbor —
			// one interface allocation per flood edge on the hottest path.
			var fwd any = protocol.QueryMsg{
				ID: m.ID, Category: m.Category, Want: remaining,
				Origin: m.Origin, Hops: m.Hops + 1,
			}
			for _, nb := range nbs {
				n.send(nb, fwd)
			}
		}
	}
}

// handleResult folds an inbound result into the owning pending query.
// Runs in the shard loop.
func (s *engineShard) handleResult(m protocol.ResultMsg) {
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
// slot. Runs in the shard loop.
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
