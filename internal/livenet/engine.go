package livenet

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/query"
)

// The concurrent query engine, caller side. A node carries many in-flight
// queries at once: each is an independent state machine (a pendingQuery)
// in the node's query table (querytable.go), advanced under the table's
// lock by the readers that receive its results, while the issuing
// goroutine only waits on its private result channel. The caller
// goroutine does the requester-cache lookup, admission (an atomic CAS
// reservation against inflightMax) and the route check with no table
// lock held, then locks the table to register the query — and, if it
// gives up, to take the query back out (abandonQuery). Admission
// control bounds the pending table: a node under overload rejects new
// queries with ErrOverloaded instead of piling up goroutines, and the
// requester-side document cache (internal/cache, the paper's §7 viii
// extension) answers repeat queries in zero hops before any message is
// sent.
//
// Outcome accounting is conservative: every QueryContext call counts
// queries_total once and exactly one outcome (the equation is written
// above the query counters, counters.go). The node keeps these counts,
// not per-query samples: a caller that wants latency reads each
// outcome's ResponseTime.
const (
	// DefaultMaxInFlight bounds concurrently pending queries per node;
	// queries beyond it are rejected with ErrOverloaded (admission
	// control, counted as query_rejected).
	DefaultMaxInFlight = 1024
	// DefaultCacheBytes sizes the requester-side document cache a node
	// starts with (16 of the paper's 4 MB example documents);
	// Options.CacheBytes resizes or disables it.
	DefaultCacheBytes = 64 << 20
	// resendAfter is how long a pending query waits after its last send
	// before re-sending to another member of the serving cluster — the
	// entry message, or a frame to a holder the entry member asked, was
	// probably lost. A re-send keeps the query id, and an answer to both
	// copies is folded in once.
	resendAfter = 1200 * time.Millisecond
	// maxResends bounds per-query re-sends; a cancelled query leaves the
	// pending table and stops counting toward this budget.
	maxResends = 2
	// maxPendingAge backstops a pending query whose context carries no
	// deadline, so an abandoned slot is always reclaimed by the sweep.
	maxPendingAge = time.Minute
	// maxDocsHint caps the pre-sized capacity of a query's result set. Go
	// allocates a map hint eagerly, and m is whatever the caller asked
	// for: the answer is bounded by what arrives, not by m.
	maxDocsHint = 64
)

// QueryContext runs the §3.3 protocol for a category over the live
// network, seeking m distinct documents. It is Done once it holds
// min(m, documents placed in the category), so an empty category
// returns at once without sending a frame. It is safe to call from many
// goroutines at once — each call occupies one in-flight slot until it
// completes, times out, or ctx is cancelled. A context deadline maps to
// ErrTimeout (with the partial outcome); a cancellation returns
// ctx.Err() and frees the slot immediately.
func (n *Node) QueryContext(ctx context.Context, cat catalog.CategoryID, m int) (query.Result, error) {
	start := n.io.now()
	n.stats.QueriesTotal.Add(1)
	if err := ctx.Err(); err != nil {
		reason, qerr := ctxReason(err, &n.stats.QueryTimeouts, &n.stats.QueryCancelled)
		reason.Add(1)
		return query.Result{}, qerr
	}
	if n.closed() {
		// Fail fast on a closed node — without this, a query could reach
		// admission and bounce off slots that died with the engine.
		n.stats.QueryClosed.Add(1)
		return query.Result{}, ErrClosed
	}

	// Requester-cache lookup, entirely in this goroutine: a full cache
	// hit never touches a lock, a channel, or the network.
	docs := make(map[catalog.DocID]bool, min(m, maxDocsHint))
	if cs := n.cacheSt; cs != nil {
		for _, d := range cs.lookup(cat, m) {
			cs.docs.Contains(d) // refresh recency/frequency and hit stats
			docs[d] = true
		}
		if len(docs) >= m {
			n.stats.CacheHit.Add(1)
			return n.answered(start, docs), nil
		}
		n.stats.CacheMiss.Add(1)
	}

	// Admission: CAS-reserve a slot so the bound stays exact with every
	// caller admitting at once (a plain load-then-increment overshoots
	// under contention). The slot is released by whoever takes the query
	// out of the pending table, or right here on the paths below that
	// never reach it.
	for {
		cur := n.inflight.Load()
		if cur >= n.inflightMax {
			n.stats.QueryRejected.Add(1)
			return query.Result{}, ErrOverloaded
		}
		if n.inflight.CompareAndSwap(cur, cur+1) {
			break
		}
	}

	// Route check under the read lock: the serving cluster must have an
	// NRT member for the entry send (routeQuery) to choose from.
	n.routeMu.RLock()
	need := n.holders.of(cat).Target(m)
	entry, routed := n.dcrt[cat]
	routed = routed && len(n.nrt[entry.Cluster]) > 0
	n.routeMu.RUnlock()
	if routed && len(docs) >= need {
		// Nothing left to ask for: an empty category, or a cache holding
		// every document placed.
		n.inflight.Add(-1)
		return n.answered(start, docs), nil
	}
	if !routed {
		n.inflight.Add(-1)
		n.stats.QueryNoRoute.Add(1)
		return query.Result{}, ErrNoRoute
	}

	// Register. From here on the pending entry owns the in-flight slot;
	// whoever removes the entry releases it.
	ch := make(chan query.Result, 1)
	deadline, hasDeadline := ctx.Deadline()
	n.queries.mu.Lock()
	id, first, routed := n.register(cat, m, need, docs, ch, deadline, hasDeadline)
	n.queries.mu.Unlock()
	if routed {
		n.io.send(first, lanePost) // outside the table's lock: a write-through may wait
	}

	select {
	case out := <-ch:
		out.ResponseTime = n.io.now().Sub(start)
		n.stats.QueriesOK.Add(1)
		return out, nil
	case <-ctx.Done():
		reason, qerr := ctxReason(ctx.Err(), &n.stats.QueryTimeouts, &n.stats.QueryCancelled)
		out, completed := n.abandonQuery(id, ch)
		out.ResponseTime = n.io.now().Sub(start)
		if completed {
			// The query finished in the race window between ctx firing
			// and the slot being released; report the success.
			n.stats.QueriesOK.Add(1)
			return out, nil
		}
		reason.Add(1)
		return out, qerr
	case <-n.done:
		// Same preference on shutdown: a result delivered just before
		// close still counts as a success.
		select {
		case out := <-ch:
			out.ResponseTime = n.io.now().Sub(start)
			n.stats.QueriesOK.Add(1)
			return out, nil
		default:
			n.stats.QueryClosed.Add(1)
			return query.Result{}, ErrClosed
		}
	}
}

// answered completes a query the caller settles without a frame.
func (n *Node) answered(start time.Time, docs map[catalog.DocID]bool) query.Result {
	out := query.Result{Done: true, Results: len(docs)}
	for d := range docs {
		out.Docs = append(out.Docs, d)
	}
	out.ResponseTime = n.io.now().Sub(start)
	n.stats.QueriesOK.Add(1)
	return out
}

// Query blocks until min(m, documents placed) distinct documents arrive
// or the timeout expires (in which case the partial outcome and
// ErrTimeout are returned): it is QueryContext under a timeout context.
func (n *Node) Query(cat catalog.CategoryID, m int, timeout time.Duration) (QueryOutcome, error) {
	ctx, cancel := n.io.withTimeout(context.Background(), timeout)
	defer cancel()
	return n.QueryContext(ctx, cat, m)
}

// ctxReason maps a context error to its outcome counter and sentinel,
// for queries and fetches alike: a deadline is a timeout (ErrTimeout);
// an explicit cancellation stays ctx.Err() so callers can tell the two
// apart.
func ctxReason(err error, timeouts, cancelled *atomic.Int64) (*atomic.Int64, error) {
	if errors.Is(err, context.DeadlineExceeded) {
		return timeouts, ErrTimeout
	}
	return cancelled, err
}

// queryID builds a globally unique query id from the node's 64-bit salt
// and its query sequence number. The pre-fix scheme kept only the low
// 16 bits of the node id (`nextQuery<<16 | id&0xffff`), so two nodes
// whose ids agree mod 65536 minted IDENTICAL ids at the same sequence
// point, and the loop-detection set of the time suppressed one node's
// query as a duplicate of the other's. Mixing the full node id through a
// bijective 64-bit finalizer makes same-node ids distinct by
// construction (mixQ is a bijection over the sequence) and cross-node
// collisions need a full-width match instead of a low-16-bit one.
func queryID(salt, seq uint64) uint64 {
	return mixQ(salt ^ mixQ(seq))
}

// querySaltFor derives a node's id-mixing salt from its full node id.
func querySaltFor(id model.NodeID) uint64 {
	return mixQ(uint64(id)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909)
}

// mixQ is the splitmix64 finalizer (bijective over uint64).
func mixQ(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// abandonQuery takes a cancelled or deadline-expired query out of the
// pending table: it finishes the query as not done, which releases the
// slot, caches the partial docs (they were fetched either way) and
// buffers the partial outcome in ch. If the query completed in the race
// window, finishPending already ran and ch holds the completed outcome
// instead; the second return reports that case. The caller owns the
// stats accounting for whichever outcome this returns.
func (n *Node) abandonQuery(id uint64, ch chan query.Result) (query.Result, bool) {
	n.queries.mu.Lock()
	if pq, ok := n.queries.pending[id]; ok {
		n.finishPending(pq, false)
	}
	n.queries.mu.Unlock()
	select {
	case out := <-ch:
		return out, out.Done
	default:
		return query.Result{}, false
	}
}

// InFlight reports how many queries this node currently has pending (a
// point-in-time gauge).
func (n *Node) InFlight() int { return int(n.inflight.Load()) }

// Instance exposes the deployment's content model (for workload
// generation against a live node; treat it as read-only).
func (n *Node) Instance() *model.Instance { return n.inst }
