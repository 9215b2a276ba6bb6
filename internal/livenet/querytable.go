package livenet

// The query table: the queries a node issued and has not finished, in
// one table behind one mutex. Whichever goroutine holds the work — the
// caller issuing a query, the connection reader that decoded its result,
// the timerwheel running a sweep — locks the table and runs it.
//
// Ownership map:
//
//	queries.mu        the pending map, the query-id sequence and the
//	                  entry-member generator. Under queries.hitsMu (a
//	                  leaf): per-category hit counters, drained by the
//	                  adaptation report under routeMu.Lock.
//	routeMu.Lock      control state: membership, adaptation, address
//	                  book, byCat, the DCRT's own rows, NRT, holder view,
//	                  the node rng — everything low-rate, written by
//	                  whichever goroutine the work arrived on (a reader's
//	                  control frame, an API caller, a tick); see
//	                  livenet.go. The bases the book, DCRT and holder
//	                  view read are the deployment's, shared by every
//	                  node and written by none, so they need no lock.
//	caller goroutine  admission (atomic CAS), requester-cache lookup, the
//	                  DCRT check, and routing and registering its own
//	                  query.
//
// Frame dispatch: a connection reader runs a decoded ResultMsg itself
// under queries.mu, a QueryMsg itself under routeMu.RLock alone, and
// every other control frame itself under routeMu.Lock (routeInbound).
// Running a query takes no table lock: a node keeps no per-query state
// for queries it did not issue, since the placement rule
// (protocol.Forward) cannot loop. A query id is the table's own
// sequence number: it names the query only in its origin's table, and
// peers echo it back as an opaque uint64 in a result addressed to that
// origin, so ids from different nodes may coincide harmlessly.
//
// Locking: the order is queries.mu → routeMu → leaf mutexes. Table code
// reads the control state under routeMu.RLock, possibly while holding
// queries.mu; whoever holds routeMu.Lock must never take queries.mu
// while it does (a reader holding the table may be waiting for RLock).
// route() assumes routeMu is held in either mode. Nothing under either
// lock blocks: sends under a lock take the queue lane (nodeio.go),
// results go to a buffered channel, the sweep only TryLocks. The query
// path's frames — a caller's entry send, a reader's answer and forwards
// — are routed under the lock and posted after it is released.
//
// Shutdown: there is nothing to stop. close(done) ends the accept loop
// and, with the connections closed, the readers; the table simply stops
// being visited, and a caller waiting on its result channel leaves
// through its done arm, preferring a result delivered just before.

import (
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// queryTable holds a node's own in-flight queries.
type queryTable struct {
	// mu guards the fields below, down to rng.
	mu      sync.Mutex
	pending map[uint64]*pendingQuery
	seq     uint64
	rng     *rand.Rand // picks each send's entry member

	// hits counts per-category entry requests into this node (the §6.1.2
	// monitoring counter). Readers increment it, the adaptation report
	// drains it — under routeMu.Lock, where it may not take mu; hence a
	// mutex of its own.
	hitsMu sync.Mutex
	hits   map[catalog.CategoryID]int64
}

// Random streams a node derives from (seed, id) with newPCG.
const (
	streamQueries = 1 + iota // queryTable.rng
	streamControl            // Node.rng
)

// newPCG derives one of a node's random streams from (seed, id). A PCG
// holds 16 bytes of state, where a math/rand source holds ≈ 4.9 KB.
func newPCG(seed int64, id model.NodeID, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), mixQ(uint64(id)<<8|stream)))
}

// trySweep runs the housekeeping sweep if the table is free and queues
// its resends once the table is released. It is called on the timerwheel
// goroutine, which must never wait: a table busy with a frame gets the
// next tick ≤ sweepInterval later, which the sweep's semantics tolerate,
// and the resends are never posted (a stalled peer would stall the wheel).
func (n *Node) trySweep(now time.Time) {
	if !n.queries.mu.TryLock() {
		n.stats.QuerySweepSkips.Add(1)
		return
	}
	resends := n.sweep(now)
	n.queries.mu.Unlock()
	for _, f := range resends {
		n.io.send(f, laneQueue)
	}
}

// addHit bumps the §6.1.2 per-category request counter.
func (n *Node) addHit(cat catalog.CategoryID) {
	n.queries.hitsMu.Lock()
	n.queries.hits[cat]++
	n.queries.hitsMu.Unlock()
}

// drainHits returns the hit counters and resets them — one epoch's
// measurement for the adaptation report.
func (n *Node) drainHits() map[catalog.CategoryID]int64 {
	q := &n.queries
	q.hitsMu.Lock()
	defer q.hitsMu.Unlock()
	out := q.hits
	q.hits = make(map[catalog.CategoryID]int64, len(out))
	return out
}

// nextQueryID mints the node's next query id, its table's next
// sequence number. Caller holds queries.mu.
func (n *Node) nextQueryID() uint64 {
	n.queries.seq++
	return n.queries.seq
}

// register routes a new query's entry message, which the caller posts
// once it has released queries.mu, and installs the query as pending. A
// query with no route (ok false) is not installed: the serving cluster
// has no routable member. The query asks for want documents and is done
// at need, min(want, documents placed). Caller holds queries.mu, has
// passed admission and holds the in-flight slot, which a registered
// query owns from here on.
func (n *Node) register(cat catalog.CategoryID, want, need int, docs map[catalog.DocID]bool,
	ch chan QueryOutcome, deadline time.Time, hasDeadline bool) (id uint64, entry outFrame, ok bool) {
	id = n.nextQueryID()
	now := n.io.now()
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
	if entry, ok = n.routeQuery(pq); ok {
		n.queries.pending[id] = pq
	}
	return id, entry, ok
}

// routeQuery addresses the query's (re)issue to a random routable member
// of the serving cluster, read off the current tables. It reports false
// when the category has no DCRT entry or its cluster no routable member.
// The full demand goes out even when the cache primed a partial answer:
// the entry member picks who answers by the demand, and a node that
// answers returns at most that many documents. Caller holds queries.mu.
func (n *Node) routeQuery(pq *pendingQuery) (f outFrame, ok bool) {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	entry, ok := n.dcrt.Get(pq.cat)
	if !ok {
		return outFrame{}, false
	}
	count := 0
	n.routable(entry.Cluster, func(model.NodeID) bool {
		count++
		return true
	})
	if count == 0 {
		return outFrame{}, false
	}
	var target model.NodeID
	k := n.queries.rng.IntN(count)
	n.routable(entry.Cluster, func(mb model.NodeID) bool {
		target = mb
		k--
		return k >= 0
	})
	f = n.route(target, protocol.QueryMsg{
		ID: pq.id, Category: pq.cat, Want: pq.want, Origin: n.id, Hops: 1, Entry: true,
	})
	return f, f.addr != ""
}

// sweep advances the pending queries: expired entries deliver their
// partial outcome, and a query still pending resendAfter after its last
// send is re-sent to a serving-cluster member chosen from the current
// tables, so a peer the failure detector evicted since the last send is
// no longer a candidate. That holds for a query partly answered too: the
// frame lost may be the one to a holder the entry member asked. A query
// with no route left is not re-sent and waits out its deadline. It
// returns the resends, routed, for the caller to send once it has
// released queries.mu, which it holds. Queries are visited in id order,
// not map order: each resend draws the entry-member generator, so a
// seed replays which member each resend goes to.
func (n *Node) sweep(now time.Time) (resends []outFrame) {
	ids := make([]uint64, 0, len(n.queries.pending))
	for id := range n.queries.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		pq := n.queries.pending[id]
		if now.After(pq.deadline) {
			n.finishPending(pq, false)
			n.stats.PendingExpired.Add(1)
			continue
		}
		if pq.resends < maxResends && now.Sub(pq.lastSend) > resendAfter {
			if f, ok := n.routeQuery(pq); ok {
				resends = append(resends, f)
				pq.resends++
				pq.lastSend = now
				n.stats.QueryResends.Add(1)
			}
		}
	}
	return resends
}

// handleQuery runs the §3.3 target-node logic: protocol.Forward says
// whom the node asks and whether it answers from its store. A query for
// a category this node has no DCRT entry for is dropped (and counted)
// instead of being misrouted into cluster 0. No table state is touched
// but the hit counter; matching and asking are decided under
// routeMu.RLock, and the frames they route are posted after it is
// released — forwards first, then the answer, the order they are
// decided in.
func (n *Node) handleQuery(m protocol.QueryMsg) {
	var buf [4]outFrame // a directed ask and an answer, or a small cover
	for _, f := range n.runQuery(m, buf[:0]) {
		n.io.send(f, lanePost)
	}
}

// runQuery decides handleQuery's frames under routeMu.RLock and appends
// them, routed, to out.
func (n *Node) runQuery(m protocol.QueryMsg, out []outFrame) []outFrame {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	if _, ok := n.dcrt.Get(m.Category); !ok {
		n.stats.DropNoRoute.Add(1)
		return out
	}
	if m.Entry {
		// §6.1.2 monitoring: count the request once per cluster entry, so
		// the adaptation layer measures category demand, not how many
		// holders answered.
		n.addHit(m.Category)
	}
	docs := n.byCat[m.Category]
	// Box the forwarded message once, and only when the rule asks
	// someone: a frame carries `any`, so a struct literal per ask would
	// re-box per holder. The copy is never an entry frame, so an asked
	// holder counts no hit and asks nobody unless its store is stale.
	var fwd any
	answers := protocol.Forward(n.id, m, docs, n.holders.of(m.Category), n.book.has, func(to model.NodeID) {
		if fwd == nil {
			fwd = protocol.QueryMsg{ID: m.ID, Category: m.Category, Want: m.Want, Origin: m.Origin, Hops: m.Hops + 1}
		}
		out = append(out, n.route(to, fwd))
	})
	if take := min(m.Want, len(docs)); answers && take > 0 {
		// Exact-capacity allocation: the hot path pays one slice alloc,
		// never an append-grow chain (pinned by TestHandleQueryAllocs).
		n.served.Add(1)
		out = append(out, n.route(m.Origin, protocol.ResultMsg{
			ID: m.ID, Docs: append(make([]catalog.DocID, 0, take), docs[:take]...), Hops: m.Hops,
		}))
	}
	return out
}

// handleResult folds an inbound result into its pending query, up to the
// m documents it asks for (holders asked together may answer more
// between them), and completes it at the documents it needs. A query id
// names a query only in its origin's table, so a document outside the
// query's category — a result that reached the wrong node, or a stale
// one — is counted and not folded; a result with no document of the
// category leaves the query as it was.
func (n *Node) handleResult(m protocol.ResultMsg) {
	n.queries.mu.Lock()
	defer n.queries.mu.Unlock()
	pq, ok := n.queries.pending[m.ID]
	if !ok {
		return
	}
	ours := false
	for _, d := range m.Docs {
		if !slices.Contains(n.inst.Catalog.Doc(d).Categories, pq.cat) {
			n.stats.QueryForeignDocs.Add(1)
			continue
		}
		ours = true
		if len(pq.docs) < pq.want {
			pq.docs[d] = true
		}
	}
	if !ours {
		return
	}
	if m.Hops > pq.hops {
		pq.hops = m.Hops
	}
	if len(pq.docs) >= pq.need {
		// Report the farthest contributing result, not whichever message
		// happened to complete the set.
		n.finishPending(pq, true)
	}
}

// finishPending delivers a query's outcome exactly once and releases its
// slot. Caller holds queries.mu.
func (n *Node) finishPending(pq *pendingQuery, done bool) {
	n.cacheDocs(pq.docs)
	out := pq.result(done)
	select {
	case pq.ch <- out:
	default: // caller abandoned; the slot still frees
	}
	delete(n.queries.pending, pq.id)
	n.inflight.Add(-1)
}

// tables counts the pending queries, and those more than slack past
// their deadline: TableSizes' and OverduePending's reading of the table.
func (n *Node) tables(slack time.Duration) (pending, overdue int) {
	n.queries.mu.Lock()
	defer n.queries.mu.Unlock()
	now := n.io.now()
	for _, pq := range n.queries.pending {
		if now.After(pq.deadline.Add(slack)) {
			overdue++
		}
	}
	return len(n.queries.pending), overdue
}
