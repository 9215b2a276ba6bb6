package livenet

// The content data plane, requester and server side. A fetch is the
// bulk analogue of a query: the caller goroutine runs the whole state
// machine (no per-transfer goroutine — the idle-cluster goroutine
// budget stays nodes*2+64), replica holders serve manifest and chunk
// requests inline on their connection reader goroutines (the store is
// read-mostly and its own lock, so serving never holds routeMu), and
// replies are demultiplexed back to the waiting fetcher
// through a transfer registry keyed by a requester-minted id. Every
// byte a node pulls — a Fetch or a move's owed documents — streams
// through one routine, download; the background move pulls share one
// bounded worker pool.
//
// Flow control is receiver-driven: wire.ChunkReq IS the credit grant.
// A server only ever sends chunks the fetcher explicitly asked for, so
// the fetcher's outstanding window — not the sender's appetite — bounds
// bulk data in flight, and the transport's two-lane writer (transport.go)
// keeps the granted chunks from ever starving protocol frames on the
// shared stream. Every chunk is verified against the manifest as it
// lands; on a dead or lying source the fetcher fails over to the next
// replica holder and resumes from the last verified chunk — verified
// progress is never thrown away.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/content"
	"p2pshare/internal/model"
	"p2pshare/internal/wire"
)

const (
	// fetchWindow bounds a transfer's outstanding (granted, unreceived)
	// chunks: 32 × 64 KB = 2 MB in flight per transfer.
	fetchWindow = 32
	// fetchRefillAt is the low-water mark: when outstanding credit drops
	// to this, the fetcher grants the next batch — early enough to keep
	// the pipe full, late enough to coalesce grants (~1 ChunkReq per
	// window/4 chunks in steady state, not one per chunk).
	fetchRefillAt = fetchWindow / 4
	// serverMaxGrant caps how many chunks one ChunkReq may grant, so a
	// corrupt or hostile Count cannot make a server flood megabytes
	// unasked.
	serverMaxGrant = 64
	// xferChanCap sizes a transfer's reply channel. Deliveries beyond it
	// are dropped (the reader goroutine must never block on a slow
	// fetcher) and recovered by the stall re-grant.
	xferChanCap = 2 * fetchWindow
	// manifestWait / chunkStallWait bound how long a fetcher waits on a
	// silent source before re-granting once and then failing over.
	manifestWait   = 1500 * time.Millisecond
	chunkStallWait = 1200 * time.Millisecond
	// maxHashFailsPerSource is how many corrupt chunks one source may
	// send before the fetcher stops re-requesting and fails over.
	maxHashFailsPerSource = 8
	// discoverTTL bounds intra-cluster manifest-request forwarding: a
	// contacted non-holder relays the request up to this many hops deeper
	// into the serving cluster, so a fetcher whose few remote contacts
	// all miss the replica set still finds a holder. The intra-cluster
	// NRT is a sparse ring-plus-chords graph, so three hops are needed to
	// reach past a contact's immediate neighborhood.
	discoverTTL = 3
	// manifestFwdFanout is how many serving-cluster neighbors one
	// non-holder forwards a manifest request to. With discoverTTL the
	// flood per contacted source is ≤ 1+3+9+27 small frames.
	manifestFwdFanout = 3
	// maxFloods bounds how many discovery rounds one fetch runs before
	// giving up — each round forwards along a different rotation, so
	// retries explore new membership slices; maxTriesPerHolder bounds
	// chunk-phase attempts against any single discovered holder (a
	// re-flood may re-discover it).
	maxFloods         = 4
	maxTriesPerHolder = 2
	// maxPullFetchers bounds the background pull workers per node that
	// ship moves (adaptation can reassign several categories in one
	// epoch; their transfers queue rather than stampede).
	maxPullFetchers = 2
	// pullTimeout backstops one background pull; the worker running it
	// sets the deadline.
	pullTimeout = 2 * time.Minute
	// defaultCacheAdmitHits is the demand threshold a document must
	// clear before a fetched copy is admitted to the replica cache: two
	// observations (own fetches plus manifest requests seen) within one
	// demand window, so a one-off fetch never churns the cache.
	defaultCacheAdmitHits = 2
	// maxDemandEntries bounds the per-doc demand counter map; at the cap
	// the whole window resets (the counters are a recency signal, not an
	// account).
	maxDemandEntries = 4096
	// cacheDecayEpochs is how many adaptation epochs a cached replica
	// may sit unserved before the decay pass drops it.
	cacheDecayEpochs = 4
	// prevClusterTTL bounds how long a moved category's shedding cluster
	// stays a fetch-source fallback: long enough to cover the gaining
	// holders' background shipping (pullTimeout), short enough that
	// the map cannot grow without bound across repeated reassignments.
	prevClusterTTL = 3 * time.Minute
)

// ErrNoContent reports a fetch that ran out of sources: every reachable
// replica holder was tried (twice) and none completed the transfer.
var ErrNoContent = errors.New("livenet: no replica holder could serve the document bytes")

// ContentConfig enables the content data plane on a node
// (Options.Content): a chunk store primed with the placement's
// documents, inline manifest/chunk serving, Node.Fetch, and byte-
// shipping rebalancing moves.
type ContentConfig struct {
	// CacheBytes budgets the demand-driven replica cache: a successful
	// remote Fetch installs the verified bytes as an evictable cached
	// copy, making this node a real replica holder that answers
	// ManifestReq floods. 0 disables caching.
	CacheBytes int64

	// Test seams, set only by this package's tests; zero means
	// content.DefaultChunkSize and defaultCacheAdmitHits.
	chunkSize      int
	cacheAdmitHits int
}

// ContentStore exposes the node's chunk store — nil when the content
// data plane is disabled. Callers may Put real bytes before Publish to
// share non-synthetic content (see examples/musicshare).
func (n *Node) ContentStore() *content.Store { return n.store }

// noteDemand counts one observation of recent demand for doc — an own
// fetch or a manifest request seen — and returns the updated count. The
// window resets wholesale at the size cap: the counters are a recency
// signal driving cache admission, not an account.
func (n *Node) noteDemand(d catalog.DocID) int {
	n.demandMu.Lock()
	if len(n.demand) >= maxDemandEntries {
		n.demand = make(map[catalog.DocID]int)
	}
	n.demand[d]++
	hits := n.demand[d]
	n.demandMu.Unlock()
	return hits
}

// resetDemand clears the demand window (the decay tick calls it, so
// "recent" means within the last few adaptation epochs).
func (n *Node) resetDemand() {
	n.demandMu.Lock()
	n.demand = make(map[catalog.DocID]int)
	n.demandMu.Unlock()
}

// holdDoc records a document this node holds from birth or publish: the
// routing metadata (storeDoc) plus — when the content plane is on — a
// synthetic registration standing in for the bytes on the peer's disk.
// Documents acquired by a rebalancing move do NOT come through here;
// their bytes must arrive over the network (queueMoves → runMove →
// PutVerified).
func (n *Node) holdDoc(d catalog.DocID) {
	n.storeDoc(d)
	if n.store != nil {
		n.store.Register(d, n.inst.Catalog.Doc(d).Size)
	}
}

// registerXfer mints a transfer id and installs its reply channel.
func (n *Node) registerXfer() (uint64, chan envelope) {
	id := n.xferSeq.Add(1)
	ch := make(chan envelope, xferChanCap)
	n.xferMu.Lock()
	n.xfers[id] = ch
	n.xferMu.Unlock()
	return id, ch
}

func (n *Node) unregisterXfer(id uint64) {
	n.xferMu.Lock()
	delete(n.xfers, id)
	n.xferMu.Unlock()
}

// deliverXfer routes one Manifest/Chunk reply to the waiting fetcher.
// Called from connection reader goroutines: it must never block, so a
// full reply channel drops the frame (counted; the fetcher's stall
// re-grant recovers the chunk).
func (n *Node) deliverXfer(id uint64, env envelope) {
	n.xferMu.Lock()
	ch := n.xfers[id]
	n.xferMu.Unlock()
	dropped := &n.stats.TransferStrayFrames
	if ch != nil {
		select {
		case ch <- env:
			return
		default:
			dropped = &n.stats.TransferOverruns
		}
	}
	dropped.Add(1)
	if c, ok := env.Msg.(wire.Chunk); ok {
		c.Release()
	}
}

// creditWindow is the receiver-driven flow control of one chunk stream:
// the chunks granted to src and not yet verified, owned by download.
type creditWindow struct {
	n           *Node
	src         model.NodeID
	doc         catalog.DocID
	xfer        uint64
	asm         *content.Assembly
	outstanding map[int]struct{}
}

// grant sends coalesced ChunkReqs for the given ascending indexes and
// records them as outstanding, posted: the fetching goroutine holds no
// node lock.
func (w *creditWindow) grant(idxs []int) {
	for i := 0; i < len(idxs); {
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[j-1]+1 {
			j++
		}
		w.n.io.send(w.n.routeUnlocked(w.src, wire.ChunkReq{
			Doc: w.doc, Xfer: w.xfer,
			First: int64(idxs[i]), Count: int64(j - i),
		}), lanePost)
		i = j
	}
	for _, idx := range idxs {
		w.outstanding[idx] = struct{}{}
	}
}

// reset forgets all credit and grants a full window of the lowest
// missing chunks — at stream open, and again after a silent stall (the
// grant or the chunks may have been dropped under overrun).
func (w *creditWindow) reset() {
	w.outstanding = make(map[int]struct{}, fetchWindow)
	w.grant(w.asm.Missing(fetchWindow))
}

// landed retires verified chunk idx and, at the low-water mark, tops
// the window back up. Outstanding chunks are all missing, so the first
// fetchWindow missing chunks always hold enough fresh ones to fill it:
// a refill costs the window, not a scan of the document.
func (w *creditWindow) landed(idx int) {
	delete(w.outstanding, idx)
	if len(w.outstanding) > fetchRefillAt {
		return
	}
	fresh := w.asm.Missing(fetchWindow)
	k := 0
	for _, m := range fresh {
		if _, inflight := w.outstanding[m]; !inflight && len(w.outstanding)+k < fetchWindow {
			fresh[k] = m
			k++
		}
	}
	w.grant(fresh[:k])
}

// serveManifestReq answers a manifest request inline on the reader
// goroutine. The store answers a manifest only for a document it holds
// at that moment; a synthetic one is hashed once per process, not once
// per holder, so every holder sends the same bytes and only the first
// request for a document in the process pays the hash on its reader. A
// holder replies straight to the request's origin; a
// member that does not hold the document forwards the request to a few
// serving-cluster neighbors instead (TTL-bounded), so holder discovery
// rides the overlay the same way queries do — placement stores each
// document on a replica subset, and the fetcher's handful of remote
// contacts need not themselves be in it. At TTL 0 the request dies
// silently; the fetcher's flood redundancy and re-flood cover the loss.
//
// A reader replies to a content frame on the queue lane, never posts:
// blocked writing through on a link full of flushed chunks, it would
// stop draining the link its peer may be blocked writing on.
func (n *Node) serveManifestReq(from model.NodeID, m wire.ManifestReq) {
	// Every manifest request seen is one observation of demand — the
	// crowd signal cache admission keys off, whether or not this node
	// can answer.
	n.noteDemand(m.Doc)
	if n.store != nil {
		if man, ok := n.store.Manifest(m.Doc); ok {
			n.stats.TransferManifestsServed.Add(1)
			n.io.send(n.routeUnlocked(m.Origin, wire.Manifest{
				Doc:       m.Doc,
				Xfer:      m.Xfer,
				Size:      man.Size,
				ChunkSize: int64(man.ChunkSize),
				Hashes:    man.Hashes,
			}), laneQueue)
			return
		}
	}
	if m.TTL <= 0 || n.store == nil {
		n.stats.TransferReqDropped.Add(1)
		return
	}
	// Forward to addressable serving-cluster members, rotating the start
	// position by a per-node sequence so consecutive forwards — and the
	// fetcher's re-floods — fan out over different slices of the
	// membership instead of retracing one deterministic tree that may
	// simply not contain a holder.
	var next []model.NodeID
	n.routeMu.RLock()
	if e, ok := n.dcrt[n.inst.Catalog.Doc(m.Doc).Categories[0]]; ok {
		members := n.nrt[e.Cluster]
		if len(members) > 0 {
			start := int((n.fwdSeq.Add(1) + uint64(n.id)) % uint64(len(members)))
			for i := 0; i < len(members) && len(next) < manifestFwdFanout; i++ {
				peer := members[(start+i)%len(members)]
				if peer == n.id || peer == m.Origin || peer == from || !n.book.has(peer) {
					continue
				}
				next = append(next, peer)
			}
		}
	}
	n.routeMu.RUnlock()
	if len(next) == 0 {
		n.stats.TransferReqDropped.Add(1)
		return
	}
	n.stats.TransferReqForwards.Add(1)
	fwd := wire.ManifestReq{Doc: m.Doc, Xfer: m.Xfer, Origin: m.Origin, TTL: m.TTL - 1}
	for _, peer := range next {
		n.io.send(n.routeUnlocked(peer, fwd), laneQueue)
	}
}

// serveChunkReq queues the granted chunk range on the bulk lane as
// descriptors: this reader goroutine generates no bytes, the peer's
// writer materializes each chunk inside the frame it sends (again on a
// retry after reconnect; a document dropped meanwhile goes out as a
// Missing chunk). The grant is the flow control: nothing beyond
// [First, First+Count) is sent, and Count is clamped so a bad frame
// cannot demand an unbounded burst. A Missing reply is queued, for the
// reason serveManifestReq gives.
func (n *Node) serveChunkReq(from model.NodeID, m wire.ChunkReq) {
	count := m.Count
	if count > serverMaxGrant {
		count = serverMaxGrant
		n.stats.TransferGrantsClamped.Add(1)
	}
	if n.store == nil || !n.store.Has(m.Doc) {
		n.io.send(n.routeUnlocked(from, wire.Chunk{Doc: m.Doc, Xfer: m.Xfer, Index: m.First, Missing: true}), laneQueue)
		return
	}
	for i := int64(0); i < count; i++ {
		idx := m.First + i
		size, ok := n.store.ChunkLen(m.Doc, int(idx))
		if !ok {
			n.io.send(n.routeUnlocked(from, wire.Chunk{Doc: m.Doc, Xfer: m.Xfer, Index: idx, Missing: true}), laneQueue)
			return
		}
		n.stats.TransferBytesOut.Add(int64(size))
		n.io.send(n.routeUnlocked(from, wire.ChunkRef{Doc: m.Doc, Xfer: m.Xfer, Index: idx, Len: size, Src: n.store}), laneBulk)
	}
}

// observeRTT folds one manifest round-trip into the per-peer EWMA that
// orders fetch sources (nearest replica holder first).
func (n *Node) observeRTT(peer model.NodeID, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	n.rttMu.Lock()
	if old, ok := n.rtt[peer]; ok {
		ms = 0.7*old + 0.3*ms
	}
	n.rtt[peer] = ms
	n.rttMu.Unlock()
}

// prevClusterRecord remembers, for a moved category, the shedding
// cluster that still holds the only bytes — with an expiry, so the
// fallback map stays bounded across repeated reassignments and stops
// pointing at long-stale clusters (entries used to live forever).
type prevClusterRecord struct {
	cluster model.ClusterID
	expires time.Time
}

// prunePrevClusters drops expired shedding-cluster records. Called under
// routeMu.Lock whenever a move lands, so the map's size is bounded
// by the categories moved within one TTL window.
func (n *Node) prunePrevClusters(now time.Time) {
	for cat, rec := range n.prevCluster {
		if !now.Before(rec.expires) {
			delete(n.prevCluster, cat)
		}
	}
}

// fetchSources snapshots the replica holders a fetch should try, in
// preference order: members of the category's serving cluster, then —
// if adaptation recently moved the category here — members of the
// shedding cluster, which keeps the only copies until the new holders
// finish pulling bytes (lazy rebalancing). Within each tier, measured
// peers sort by RTT ascending; unmeasured peers follow in id order, so
// source selection is deterministic before any latency is known.
func (n *Node) fetchSources(cat catalog.CategoryID) []model.NodeID {
	n.routeMu.RLock()
	var out, unbooked []model.NodeID
	seen := map[model.NodeID]struct{}{n.id: {}}
	add := func(ms []model.NodeID) {
		for _, m := range ms {
			if _, dup := seen[m]; dup {
				continue
			}
			seen[m] = struct{}{}
			if n.book.has(m) {
				out = append(out, m)
			} else {
				unbooked = append(unbooked, m)
			}
		}
	}
	if e, ok := n.dcrt[cat]; ok {
		add(n.nrt[e.Cluster])
	}
	if prev, ok := n.prevCluster[cat]; ok && n.io.now().Before(prev.expires) {
		add(n.nrt[prev.cluster])
	}
	n.routeMu.RUnlock()
	if len(out) == 0 {
		// Same fallback as a query's entry send (routeQuery): with no
		// addressable member, try the statically primed ones — the book
		// may simply not have synced yet.
		out = unbooked
	}
	n.rttMu.Lock()
	rtt := make(map[model.NodeID]float64, len(out))
	for _, m := range out {
		if v, ok := n.rtt[m]; ok {
			rtt[m] = v
		}
	}
	n.rttMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rtt[out[i]]
		rj, jok := rtt[out[j]]
		if iok != jok {
			return iok
		}
		if iok && ri != rj {
			return ri < rj
		}
		return out[i] < out[j]
	})
	return out
}

// Fetch retrieves a document's bytes — the data-plane companion to
// QueryContext. A locally held document is returned without touching
// the network; otherwise the caller goroutine runs download against its
// contacts in the document's serving cluster: a TTL-bounded manifest
// flood discovers replica holders, chunks stream from the first to
// respond, and a silent, lying, or emptied holder is failed over with
// the transfer resuming from the last verified chunk. Safe for many
// concurrent calls. Every call counts fetches_total once and exactly one
// outcome (the equation is written above the fetch counters,
// counters.go).
func (n *Node) Fetch(ctx context.Context, d catalog.DocID) ([]byte, error) {
	n.stats.FetchesTotal.Add(1)
	if !n.bounds.HasDoc(d) {
		n.stats.FetchBadDoc.Add(1)
		return nil, fmt.Errorf("livenet: document %d is outside the %d-document catalog the deployment launched with", d, n.bounds.Docs)
	}
	doc := n.inst.Catalog.Doc(d)
	if err := ctx.Err(); err != nil {
		reason, ferr := ctxReason(err, &n.stats.FetchTimeouts, &n.stats.FetchCancelled)
		reason.Add(1)
		return nil, ferr
	}
	if n.closed() {
		n.stats.FetchClosed.Add(1)
		return nil, ErrClosed
	}
	if n.store != nil {
		if b, ok := n.store.Bytes(d); ok {
			n.stats.FetchLocalHits.Add(1)
			n.stats.FetchesOK.Add(1)
			return b, nil
		}
	}
	// A remote fetch is one observation of demand; the count (together
	// with manifest requests seen from the crowd) decides whether the
	// fetched bytes earn a cache slot on completion.
	demandHits := n.noteDemand(d)
	sources := n.fetchSources(doc.Categories[0])
	if len(sources) == 0 {
		n.stats.FetchNoRoute.Add(1)
		return nil, ErrNoRoute
	}
	man, data, err := n.download(ctx, d, sources)
	if err != nil {
		reason := &n.stats.FetchExhausted
		switch {
		case errors.Is(err, ErrClosed):
			reason = &n.stats.FetchClosed
		case ctx.Err() != nil:
			reason, err = ctxReason(ctx.Err(), &n.stats.FetchTimeouts, &n.stats.FetchCancelled)
		}
		reason.Add(1)
		return nil, err
	}
	// Demand-driven replication, requester side: a document the demand
	// window saw repeatedly is installed as a cached replica (its own
	// copy, since the caller owns the returned slice), so this node
	// starts answering the crowd's ManifestReq floods instead of joining
	// it.
	if n.cacheAdmit > 0 && demandHits >= n.cacheAdmit {
		if n.store.PutCachedVerified(man, append([]byte(nil), data...)) {
			n.stats.ContentCacheInstalls.Add(1)
		}
	}
	n.stats.FetchesOK.Add(1)
	return data, nil
}

// download pulls one document's bytes: the package's one loop that
// receives transfer replies and grants chunk credit, shared by Fetch and
// move shipping. Whenever no holder is queued it floods a TTL-bounded
// manifest request at contacts — non-holders forward it, holders answer
// with the manifest and join the queue — for up to maxFloods rounds.
// Chunks stream from one holder at a time under the credit window, each
// verified as it lands. One silent stall re-grants the window; a second,
// a Missing reply, or more than maxHashFailsPerSource bad chunks move on
// to the next holder, resuming from the last verified chunk. It returns
// the manifest the bytes were verified against, or ErrNoContent when
// holders and floods run out, ErrClosed on shutdown, and ctx's error on
// cancellation.
func (n *Node) download(ctx context.Context, d catalog.DocID, contacts []model.NodeID) (*content.Manifest, []byte, error) {
	id, ch := n.registerXfer()
	defer n.unregisterXfer(id)

	var (
		man       *content.Manifest
		asm       *content.Assembly
		holders   []model.NodeID
		pending   = make(map[model.NodeID]bool)
		tries     = make(map[model.NodeID]int)
		floods    int
		lastFlood time.Time
	)
	// The stall timer, re-armed on a fresh channel each time, so a stale
	// fire never needs draining.
	timeout, stopTimer := n.io.after(manifestWait)
	defer func() { stopTimer() }()
	resetTimer := func(d time.Duration) {
		stopTimer()
		timeout, stopTimer = n.io.after(d)
	}
	finish := func() (*content.Manifest, []byte, error) {
		data, err := asm.Bytes()
		return man, data, err
	}
	// noteManifest folds one Manifest frame into transfer state: the
	// first valid one pins the transfer's geometry, and every distinct
	// sender is a discovered replica holder queued as a streaming source
	// (the manifest is content-addressed, so any holder's copy is the
	// same). observe is true only during the discovery phase, when the
	// elapsed time since the flood IS the sender's round trip; manifests
	// that straggle in during the chunk phase still extend the failover
	// queue but are measured against a stale flood timestamp and would
	// poison the source-ordering EWMA with multi-second outliers.
	noteManifest := func(env envelope, observe bool) {
		m, ok := env.Msg.(wire.Manifest)
		if !ok || m.Doc != d || m.Missing {
			return
		}
		if man == nil {
			cm := &content.Manifest{Doc: d, Size: m.Size, ChunkSize: int(m.ChunkSize), Hashes: m.Hashes}
			if !cm.Valid() {
				n.stats.TransferBadManifests.Add(1)
				return
			}
			man = cm
			asm = content.NewAssembly(cm)
		}
		if observe {
			n.observeRTT(env.From, n.io.now().Sub(lastFlood))
		}
		if !pending[env.From] && tries[env.From] < maxTriesPerHolder {
			pending[env.From] = true
			holders = append(holders, env.From)
		}
	}
	// flood posts one TTL-bounded discovery round at every contact.
	flood := func() {
		floods++
		lastFlood = n.io.now()
		req := wire.ManifestReq{Doc: d, Xfer: id, Origin: n.id, TTL: discoverTTL}
		for _, s := range contacts {
			n.io.send(n.routeUnlocked(s, req), lanePost)
		}
	}

	for {
		// Discovery: (re-)flood until at least one holder is queued.
		// Holders answer the flood with the manifest itself, so discovery
		// and the manifest phase are the same round trip.
		for len(holders) == 0 {
			if len(contacts) == 0 || floods >= maxFloods {
				return nil, nil, ErrNoContent
			}
			flood()
			resetTimer(manifestWait)
		discover:
			for len(holders) == 0 {
				select {
				case <-ctx.Done():
					return nil, nil, ctx.Err()
				case <-n.done:
					return nil, nil, ErrClosed
				case <-timeout:
					n.stats.TransferStalls.Add(1)
					break discover
				case env := <-ch:
					noteManifest(env, true)
				}
			}
		}
		src := holders[0]
		holders = holders[1:]
		pending[src] = false
		tries[src]++
		if asm.Complete() { // zero-length document
			return finish()
		}
		if asm.Got() > 0 {
			n.stats.TransferResumes.Add(1)
		}

		// Chunk phase against src: grant a window, top it back up at the
		// low-water mark, verify every arrival. One silent stall re-grants
		// the window; a second consecutive stall fails over. Manifests from
		// holders the flood reached late keep arriving here and extend the
		// failover queue.
		win := creditWindow{n: n, src: src, doc: d, xfer: id, asm: asm}
		win.reset()
		resetTimer(chunkStallWait)
		stalled := false
		hashFails := 0
	chunkLoop:
		for {
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-n.done:
				return nil, nil, ErrClosed
			case <-timeout:
				n.stats.TransferStalls.Add(1)
				if stalled {
					break chunkLoop
				}
				stalled = true
				win.reset()
				resetTimer(chunkStallWait)
			case env := <-ch:
				c, ok := env.Msg.(wire.Chunk)
				if !ok {
					noteManifest(env, false)
					continue
				}
				if c.Doc != d {
					continue
				}
				if c.Missing {
					n.stats.TransferSourceMissing.Add(1)
					break chunkLoop
				}
				added, err := asm.Add(int(c.Index), c.Data)
				// Data may alias a pooled frame buffer; Add copied what it
				// verified, so the buffer goes back now, whatever the verdict.
				size := int64(len(c.Data))
				c.Release()
				if err != nil {
					if errors.Is(err, content.ErrHashMismatch) {
						n.stats.ChunkHashFail.Add(1)
					} else {
						n.stats.TransferBadChunks.Add(1)
					}
					hashFails++
					if hashFails > maxHashFailsPerSource {
						break chunkLoop
					}
					if c.Index >= 0 && int(c.Index) < man.NumChunks() {
						win.grant([]int{int(c.Index)})
					}
					resetTimer(chunkStallWait)
					continue
				}
				if !added { // duplicate of a verified chunk (re-grant overlap)
					continue
				}
				stalled = false
				n.stats.TransferBytesIn.Add(size)
				if asm.Complete() {
					return finish()
				}
				win.landed(int(c.Index))
				resetTimer(chunkStallWait)
			}
		}
	}
}

// queueMoves hands the documents a §6.1 move made this node owe to the
// node's one bounded background pull pool. Called under routeMu.Lock, so
// it only spawns, never blocks. They always queue: with every worker
// busy they wait (counted as transfer_move_queued) for the next free one
// — a skipped batch would leave the move-acquired holder permanently
// byteless.
func (n *Node) queueMoves(docs []catalog.DocID) {
	n.pullMu.Lock()
	defer n.pullMu.Unlock()
	if len(docs) > 0 && n.pullWorkers >= maxPullFetchers {
		n.stats.TransferMoveQueued.Add(int64(len(docs)))
	}
	n.pullQueue = append(n.pullQueue, docs...)
	// A worker starts per queued document while fewer than
	// maxPullFetchers run, so a queued document always means every slot
	// is busy.
	for n.pullWorkers < maxPullFetchers && n.pullWorkers < len(n.pullQueue) {
		n.pullWorkers++
		n.wg.Add(1)
		go n.pullWorker()
	}
}

// pullWorker ships the queued documents one at a time and exits when the
// queue is empty or the node shuts down. The empty check and the
// worker-count decrement happen under the lock documents are queued
// under, so a document queued while the last worker is exiting is either
// seen by that worker or gets a fresh one — never stranded.
func (n *Node) pullWorker() {
	defer n.wg.Done()
	for {
		n.pullMu.Lock()
		if len(n.pullQueue) == 0 || n.closed() {
			n.pullWorkers--
			n.pullMu.Unlock()
			return
		}
		doc := n.pullQueue[0]
		n.pullQueue = n.pullQueue[1:]
		n.pullMu.Unlock()
		ctx, cancel := n.io.withTimeout(context.Background(), pullTimeout)
		n.runMove(ctx, doc)
		cancel()
	}
}

// runMove downloads a document a move made this node owe, discovering
// holders from fetchSources, and installs it as a base entry —
// move-acquired content is real network bytes, not a synthetic
// registration, which is what makes the rebalancing data plane honest
// end to end. It installs with the manifest the bytes were verified
// against, so nothing is hashed twice, and counts no fetches_*: a
// background pull is not a Fetch, and notes no demand.
func (n *Node) runMove(ctx context.Context, doc catalog.DocID) {
	if n.store.Has(doc) {
		return // an earlier move or a cached fetch landed it meanwhile
	}
	man, data, err := n.download(ctx, doc, n.fetchSources(n.inst.Catalog.Doc(doc).Categories[0]))
	if err != nil {
		n.stats.TransferMoveFailures.Add(1)
		return
	}
	n.store.PutVerified(man, data)
	n.stats.TransferMoveDocs.Add(1)
}
