// Package livenet runs the architecture's query and publish protocols
// over real TCP sockets — one OS process, many peers, each with its own
// listener and metadata tables (DCRT/NRT and the documents it holds).
// The simulated overlay (internal/overlay) is the instrument for
// experiments; livenet demonstrates that the same protocols work over an
// actual network with goroutines and sockets, and is the natural
// starting point for a multi-host deployment.
//
// Concurrency model: a node has no event loop. Work runs on the
// goroutine it arrives on — the connection reader that decoded a frame,
// the caller of an API method, a timerwheel tick — under one of two
// kinds of lock. The queries a node issued wait in one query table
// behind one mutex (querytable.go); a reader runs a decoded ResultMsg
// itself under that mutex and a decoded QueryMsg under routeMu.RLock
// alone. Every frame, clock read and timer goes through the node's one
// seam (nodeio.go), whose lanes say which goroutine may wait on a peer:
// a query or result frame posted on an idle link crosses one goroutine
// hand-off per hop (to the receiver's reader). Inside the serving cluster a query
// goes where the deterministic placement says (protocol.Forward over
// the holder view, holders.go), never to every neighbour. Everything low-rate and topological — membership,
// adaptation, the address book, the DCRT/NRT routing tables and the
// holder view — is control state, serialized by routeMu.Lock: a control
// frame runs under it on its reader, in stream order; an API call on its
// caller; a probe or epoch tick on a goroutine of its own. Query code
// reads that state under routeMu.RLock. An idle node therefore runs one
// goroutine, accept. Queries are fully concurrent: each QueryContext
// call passes admission (an atomic reservation) and the requester cache
// in its own goroutine, registers an independent state machine in the
// query table, and only the issuing goroutine blocks, so one node
// sustains hundreds of in-flight queries at once (engine.go).
// Outbound messages go through a per-peer persistent-connection pool
// (transport.go): one framed stream per destination, reused across
// messages, with reconnect-on-failure and capped backoff. Every stream
// speaks the internal/wire binary codec, opened by that package's
// handshake (DESIGN.md §10) and batched many envelopes per syscall.
package livenet

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/content"
	"p2pshare/internal/membership"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/query"
	"p2pshare/internal/replica"
	"p2pshare/internal/wire"
)

const (
	// sweepInterval paces the query table's housekeeping tick: pending
	// queries past their deadline are expired and silent ones re-sent.
	sweepInterval = 2 * time.Second
	// pendingGrace pads a pending query's expiry past the caller's own
	// timeout, so the sweep only reaps entries whose caller is gone.
	pendingGrace = 5 * time.Second
	// readIdleTimeout reaps inbound connections that go silent — a peer
	// that died without closing its socket. The deadline is armed lazily
	// (lazyDeadline), so a silent stream is reaped after between ¾ of
	// this and all of it.
	readIdleTimeout = 2 * time.Minute
	// readBufBytes sizes each inbound stream's read buffer, which every
	// open inbound link holds. It batches small frames only: a read at
	// least as large bypasses it, so a chunk goes from the connection
	// straight into the pooled buffer it is decoded from (a chunk-sized
	// buffer would prefetch every chunk — one more copy of each transfer,
	// and 64 KB per link). 1 KB holds a whole typical flush: protocol
	// frames run 19–60 bytes and batches ~1.5 frames, at most 64. The
	// trade-off over TCP: a flush of small frames larger than the buffer
	// takes more than one read syscall.
	readBufBytes = 1 << 10
)

// envelope frames every wire message with its sender. One connection
// carries a stream of envelopes; internal/wire defines the layout.
type envelope = wire.Envelope

// QueryOutcome is the result of a live query — an alias of the unified
// query.Result shared with the facade (re-exported by the root package
// as p2pshare.QueryResult).
type QueryOutcome = query.Result

// pendingQuery is one in-flight query's state machine, guarded by the
// query table's lock. The issuing goroutine holds only the buffered
// result channel; everything else advances on received ResultMsgs and
// sweep ticks (deadline expiry, resends).
type pendingQuery struct {
	id       uint64
	cat      catalog.CategoryID
	want     int // total distinct documents the caller asked for
	need     int // min(want, documents placed): the query is done at this many
	docs     map[catalog.DocID]bool
	hops     int
	ch       chan query.Result
	deadline time.Time // sweep backstop, padded past the caller's own deadline
	lastSend time.Time
	resends  int
}

// result snapshots the outcome accumulated so far.
func (pq *pendingQuery) result(done bool) query.Result {
	out := query.Result{Done: done, Hops: pq.hops, Results: len(pq.docs)}
	if len(pq.docs) > 0 {
		out.Docs = make([]catalog.DocID, 0, len(pq.docs))
		for d := range pq.docs {
			out.Docs = append(out.Docs, d)
		}
	}
	return out
}

// Node is one live peer.
type Node struct {
	id   model.NodeID
	inst *model.Instance
	ln   net.Listener
	rng  *rand.Rand // control state: under routeMu.Lock

	done chan struct{}
	wg   sync.WaitGroup

	// queries holds the queries this node issued (querytable.go).
	queries queryTable

	// io is the node's one seam to the outside world (nodeio.go); tr is
	// the outbound persistent-connection pool behind the production
	// seam, and counts into stats too.
	io    nodeIO
	tr    *transport
	stats counters

	// conns tracks accepted inbound connections so Close can unblock
	// their read loops.
	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	// readIdle is readIdleTimeout, except in tests that shorten it
	// (before dialing the connection under test).
	readIdle time.Duration

	// bounds is the deployment's shape inbound frames are decoded against.
	bounds wire.Bounds

	// Routing and topology state. Every write — a control frame, an API
	// call, a tick — holds routeMu.Lock; query code and accessors read
	// under routeMu.RLock (lock order: queries.mu → routeMu, see
	// querytable.go). book maps node ids to listen addresses (handleHello
	// and handleBook mutate it) — copy-on-write over a cluster-shared
	// base, see book.go. byCat lists the documents this node holds, per
	// category.
	routeMu sync.RWMutex
	book    *addrBook
	byCat   map[catalog.CategoryID][]catalog.DocID
	dcrt    map[catalog.CategoryID]protocol.DCRTEntry
	nrt     map[model.ClusterID][]model.NodeID
	holders holderView // who holds each category (holders.go)
	// members lists each cluster's launch members by ascending id: what
	// a moved category is placed over and adaptation elects leaders
	// from. Immutable; every node of a launched cluster shares one.
	members [][]model.NodeID

	// served counts requests this node answered (readers increment).
	served atomic.Int64

	// inflightMax is the admission-control bound on pending queries;
	// inflight is the live reservation count (slots are CAS-reserved by
	// callers and released by whoever takes the entry out of the query
	// table), so the bound is exact even with every caller admitting at
	// once.
	inflightMax int64
	inflight    atomic.Int64

	// cacheSt is the requester-side document cache (§7 viii,
	// cachestate.go): results of completed queries are kept and repeat
	// queries answered in zero hops, checked in the caller goroutine.
	// Set in newNode; nil when caching is disabled.
	cacheSt *cacheState

	// det is the SWIM failure detector (membership.go); nil unless
	// Options.Membership is on, used under routeMu.Lock. memberAlive and
	// memberSuspect are its last counts, kept for lock-free readers
	// (Stats, MembershipCounts).
	det           *membership.Detector
	memberAlive   atomic.Int64
	memberSuspect atomic.Int64
	// fairnessX1000 is the last fairness this node measured as an epoch
	// leader, in thousandths; -1 until it has evaluated one.
	fairnessX1000 atomic.Int64

	// adapt is the live adaptation state (adapt.go), nil unless
	// Options.Adaptation is set, used under routeMu.Lock. The §6.1.2 hit
	// counters feeding it live in the query table (drainHits).
	adapt *adaptState

	// Content data plane (transfer.go). store is the chunk store, nil
	// when Options.Content is unset — every serving and shipping path
	// checks. xfers demultiplexes Manifest/Chunk replies to waiting
	// downloads by transfer id; rtt is the per-peer manifest
	// round-trip EWMA ordering fetch sources; prevCluster remembers,
	// per moved category, the shedding cluster that still holds the
	// bytes (written under routeMu.Lock).
	store       *content.Store
	xferMu      sync.Mutex
	xfers       map[uint64]chan envelope
	xferSeq     atomic.Uint64
	fwdSeq      atomic.Uint64
	rttMu       sync.Mutex
	rtt         map[model.NodeID]float64
	prevCluster map[catalog.CategoryID]prevClusterRecord

	// pullMu guards the background pull pool (queueMoves/pullWorker):
	// the queued move downloads and the running worker count.
	pullMu      sync.Mutex
	pullQueue   []catalog.DocID
	pullWorkers int

	// Demand-driven replication state (transfer.go). demand counts
	// recent per-doc interest (own fetches + manifest requests seen) and
	// gates cache admission at cacheAdmit observations (0 = caching
	// off).
	demandMu   sync.Mutex
	demand     map[catalog.DocID]int
	cacheAdmit int
	// prevClusterTTLOverride shortens the shedding-cluster fallback TTL
	// in tests; 0 means the package default (prevClusterTTL).
	prevClusterTTLOverride time.Duration

	// querySalt mints query ids: the query table's sequence is mixed
	// with this full-width node discriminant (see queryID in engine.go).
	querySalt uint64

	// stopTimers unregisters this node's periodic work from the seam's
	// timers (query sweep, membership probe clock, adaptation epoch
	// clock): in production the shared process-wide timerwheel, since 3+
	// ticker goroutines per node would be tens of thousands of
	// goroutines at paper scale. Every registration happens at birth,
	// before the node is returned; timersMu also orders a tick's n.wg
	// join against shutdown (everyLocked).
	timersMu   sync.Mutex
	stopTimers []func()
}

// addTimer registers f with the seam to run every period and records
// its stop function for shutdown.
func (n *Node) addTimer(period time.Duration, f func(now time.Time)) {
	stop := n.io.every(period, f)
	n.timersMu.Lock()
	n.stopTimers = append(n.stopTimers, stop)
	n.timersMu.Unlock()
}

// everyLocked registers f with the seam's timers to run every period
// under routeMu.Lock. A tick runs on a goroutine of its own, joined to
// n.wg: the wheel must not wait for the lock (readers hold RLock
// almost continuously under query load) nor run every node's tick on
// its one goroutine. A tick that fires while the previous one is still
// waiting or running is counted under skips and dropped, never queued;
// the next tick catches the state machine up.
func (n *Node) everyLocked(period time.Duration, skips *atomic.Int64, f func(now time.Time)) {
	var busy atomic.Bool
	n.addTimer(period, func(now time.Time) {
		if !busy.CompareAndSwap(false, true) {
			skips.Add(1)
			return
		}
		// Under timersMu, which shutdown takes after closing done: a tick
		// either joins n.wg before Close waits on it or sees done.
		n.timersMu.Lock()
		defer n.timersMu.Unlock()
		if n.closed() {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.routeMu.Lock()
			if !n.closed() {
				f(now)
			}
			n.routeMu.Unlock()
			busy.Store(false)
		}()
	})
}

// newNode builds a Node with empty peer state, its own private address
// book, an idle transport, an empty query table, and the engine
// configuration the Options ask for (requester cache, content plane),
// fixed for the node's life. Membership and adaptation start later, in
// startSubsystems.
func newNode(inst *model.Instance, id model.NodeID, ln net.Listener, seed int64, opts Options) *Node {
	n := &Node{
		id:    id,
		inst:  inst,
		ln:    ln,
		rng:   newPCG(seed, id, streamControl),
		book:  newAddrBook(),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
		byCat: make(map[catalog.CategoryID][]catalog.DocID),
		dcrt:  make(map[catalog.CategoryID]protocol.DCRTEntry),
		nrt:   make(map[model.ClusterID][]model.NodeID),
		queries: queryTable{
			pending: make(map[uint64]*pendingQuery),
			rng:     newPCG(seed, id, streamQueries),
			hits:    make(map[catalog.CategoryID]int64),
		},
		inflightMax: int64(cmp.Or(opts.maxInFlight, DefaultMaxInFlight)),

		querySalt: querySaltFor(id),
		readIdle:  readIdleTimeout,
		bounds: wire.Bounds{Nodes: len(inst.Nodes), Clusters: inst.NumClusters,
			Categories: len(inst.Catalog.Cats), Docs: len(inst.Catalog.Docs)},

		xfers:       make(map[uint64]chan envelope),
		rtt:         make(map[model.NodeID]float64),
		prevCluster: make(map[catalog.CategoryID]prevClusterRecord),
		demand:      make(map[catalog.DocID]int),
	}
	n.tr = newTransport(id, seed, &n.stats)
	n.io = wireIO{n.tr}
	n.fairnessX1000.Store(-1)
	if opts.Content != nil {
		n.store = content.NewStore(opts.Content.chunkSize)
		n.tr.bulkLane = true
		if opts.Content.CacheBytes > 0 {
			n.store.SetCacheBudget(opts.Content.CacheBytes)
			n.cacheAdmit = cmp.Or(opts.Content.cacheAdmitHits, defaultCacheAdmitHits)
		}
	}
	n.book.set(id, ln.Addr().String())
	if opts.WriterIdle != 0 {
		n.tr.writerIdle = opts.WriterIdle
	}
	if cacheBytes := cmp.Or(opts.CacheBytes, DefaultCacheBytes); cacheBytes > 0 {
		n.cacheSt, _ = newCacheState(cacheBytes) // a positive capacity cannot fail
	}
	n.tr.onPeerDown = func(peer model.NodeID) {
		n.routeMu.Lock()
		n.evictPeer(peer)
		n.routeMu.Unlock()
	}
	return n
}

// closed reports whether the node has shut down.
func (n *Node) closed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// startLoops launches the node's one goroutine, the TCP accept loop. The
// housekeeping sweep rides the shared timerwheel: one registration per
// node sweeps the query table when it is free (TryLock) on the wheel's
// goroutine.
func (n *Node) startLoops() {
	n.wg.Add(1)
	go n.acceptLoop()
	n.addTimer(sweepInterval, n.trySweep)
}

// startSubsystems turns on the membership and adaptation the Options ask
// for, once the node listens and holds its tables; both launch paths end
// with it. Membership first: adaptation elects leaders from the
// detector's live view and spreads its moves on the detector's probes.
func (n *Node) startSubsystems(opts Options) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if opts.Membership {
		cfg := membership.DefaultConfig()
		cfg.ProbeInterval = cmp.Or(opts.probeInterval, cfg.ProbeInterval)
		n.enableMembership(cfg)
	}
	if opts.Adaptation != nil {
		n.enableAdaptation(*opts.Adaptation)
	}
}

// ID returns the node's id.
func (n *Node) ID() model.NodeID { return n.id }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Served returns how many requests this node has served.
func (n *Node) Served() int64 { return n.served.Load() }

// Stats snapshots the node's nonzero counters (counters.go) and its
// point-in-time gauges, each by its key.
func (n *Node) Stats() map[string]int64 {
	s := n.stats.snapshot()
	s["queue_depth"] = int64(n.tr.queueDepth())
	s["transport_writers_active"] = n.tr.writers()
	s["served"] = n.served.Load()
	if n.store != nil {
		s["content_docs_held"] = int64(n.store.Len())
		s["content_cache_bytes"] = n.store.CacheBytes()
		s["content_cache_docs"] = int64(n.store.CachedLen())
	}
	if n.cacheSt != nil {
		s["cache_capacity_bytes"] = n.cacheSt.capBytes
	}
	if n.det != nil {
		s["membership_alive"] = n.memberAlive.Load()
		s["membership_suspect"] = n.memberSuspect.Load()
	}
	if n.adapt != nil {
		s["adapt_enabled"] = 1
	}
	if f := n.fairnessX1000.Load(); f >= 0 {
		s["fairness_x1000"] = f
	}
	return s
}

// BatchSizes exposes the transport's write-coalescing histogram: how
// many envelopes each flush carried to the socket.
func (n *Node) BatchSizes() *metrics.IntHistogram { return n.tr.batches }

// Cluster is a set of live peers sharing one deployment.
type Cluster struct {
	Nodes []*Node
	inst  *model.Instance
}

// Stats aggregates every node's counters (queue depths included).
func (c *Cluster) Stats() map[string]int64 {
	total := make(map[string]int64)
	for _, n := range c.Nodes {
		if n == nil {
			continue
		}
		for k, v := range n.Stats() {
			total[k] += v
		}
	}
	return total
}

// NetHooks injects the network layer under a cluster — the seam the
// chaos harness (internal/chaos) plugs into. Either hook may be nil:
// Listen defaults to a plain loopback TCP listener, and a nil Dial
// leaves the transport's default dialer in place.
type NetHooks struct {
	// Listen opens one node's listener. Called once per node before any
	// loop starts, so a fault layer can register the address first.
	Listen func(id model.NodeID, addr string) (net.Listener, error)
	// Dial replaces every node's outbound dialer, keyed by the dialing
	// node — per-link fault injection hangs off this.
	Dial func(from model.NodeID, addr string) (net.Conn, error)
}

// Options configures a node — or every node of a launched cluster — at
// construction. It is the single knob surface for both launch paths
// (Launch for in-process clusters, StartNode for one peer of a
// multi-process deployment). It holds only the settings some deployment
// varies; the admission bound, the detector's timing, the chunk size
// and cache admission are constants. Everything it sets is fixed for
// the node's life. The zero value means the same on both paths: default
// engine, no membership, no adaptation, no content plane.
type Options struct {
	// Seed drives deterministic randomness: node rngs, transport backoff
	// jitter, and (under Launch) the NRT chord wiring. StartNode derives
	// its seed from Shape.Seed when this is zero; under Launch, zero is
	// simply the seed 0 deployment.
	Seed int64

	// Hooks injects the network layer (fault middleware, alternative
	// listeners). The zero value uses plain TCP.
	Hooks NetHooks

	// CacheBytes sizes the requester-side LRU document cache: 0 means
	// DefaultCacheBytes, negative disables caching entirely.
	CacheBytes int64

	// Membership turns on the SWIM failure detector, timed by
	// membership.DefaultConfig.
	Membership bool

	// Adaptation turns on the §6.1 online rebalancing loop with the
	// given config; nil leaves it off. It requires Membership: category
	// moves spread on the failure detector's probes, and leader election
	// excludes the nodes it declares dead.
	Adaptation *AdaptConfig

	// WriterIdle is how long a peer link may carry no frame — no batch
	// of a writer goroutine, no write-through — before its stream is
	// closed; the next send to the peer dials a new one. 0 means the
	// default (45s); negative means never.
	WriterIdle time.Duration

	// Content enables the content data plane (transfer.go /
	// internal/content): the node holds a chunk store primed with its
	// placed documents, serves manifest and chunk requests, answers
	// Node.Fetch, and ships real document bytes when adaptation moves a
	// category to its cluster. nil leaves the data plane off — metadata
	// only, the historical behavior.
	Content *ContentConfig

	// Test seams, set only by this package's tests; zero means the
	// constant every deployment runs.
	maxInFlight   int           // admission bound (DefaultMaxInFlight)
	probeInterval time.Duration // detector probe period (membership.DefaultConfig)
}

// Launch starts one TCP peer per instance node on loopback ports, primes
// metadata exactly like the simulated overlay's bootstrap (full DCRT,
// ring-plus-chords NRT per cluster, remote contacts), and returns the
// running cluster. Close it when done. Options carries everything a
// deployment can configure — seed, network hooks, cache, idle stream
// closing, membership, adaptation, content plane.
func Launch(inst *model.Instance, assign []model.ClusterID, place *replica.Placement, opts Options) (*Cluster, error) {
	return launch(inst, assign, place, opts, nil)
}

// launch is Launch with each node's seam built by ioFor, when it is not
// nil, before any node starts a timer or sends a frame.
func launch(inst *model.Instance, assign []model.ClusterID, place *replica.Placement, opts Options, ioFor func(*Node) nodeIO) (*Cluster, error) {
	if len(assign) != len(inst.Catalog.Cats) {
		return nil, fmt.Errorf("livenet: assignment covers %d of %d categories",
			len(assign), len(inst.Catalog.Cats))
	}
	mem, err := model.NewMembership(inst, assign)
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	// The NRT wiring draws from math/rand, so a seed wires the same NRTs
	// it always has.
	rng := mrand.New(mrand.NewSource(seed))
	c := &Cluster{inst: inst}
	book := make(map[model.NodeID]string, len(inst.Nodes))
	p := newPrimer(inst, assign, mem, place)
	for k := range inst.Nodes {
		n, err := p.node(inst.Nodes[k].ID, "127.0.0.1:0", seed+int64(k), opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		if ioFor != nil {
			n.io = ioFor(n)
		}
		book[n.id] = n.Addr()
		c.Nodes = append(c.Nodes, n)
	}
	// Prime NRTs: ring + chords within clusters, remote contacts across.
	for cl, members := range p.members {
		if len(members) < 2 {
			continue
		}
		link := func(a, b model.NodeID) {
			if a != b {
				c.Nodes[a].addNeighbor(model.ClusterID(cl), b)
				c.Nodes[b].addNeighbor(model.ClusterID(cl), a)
			}
		}
		for i, a := range members {
			link(a, members[(i+1)%len(members)])
			link(a, members[rng.Intn(len(members))])
		}
	}
	for _, n := range c.Nodes {
		for cl := 0; cl < inst.NumClusters; cl++ {
			if len(n.nrt[model.ClusterID(cl)]) > 0 {
				continue
			}
			members := mem.NodesOf(model.ClusterID(cl))
			if len(members) == 0 {
				continue
			}
			for i := 0; i < protocol.RemoteContacts; i++ {
				n.addNeighbor(model.ClusterID(cl), members[rng.Intn(len(members))])
			}
		}
	}

	// Every node aliases ONE shared immutable base book and diverges
	// copy-on-write (book.go): handleHello and handleBook mutate only the
	// node-private overlay, under that node's routeMu.Lock, so sharing is
	// race-free and Launch memory is O(N) instead of the O(N²) that
	// private full copies cost (≈10⁸ map entries at 10k nodes).
	for _, n := range c.Nodes {
		n.book.setBase(book)
	}

	for _, n := range c.Nodes {
		n.startLoops()
	}
	// Every node listens before any detector probes.
	for _, n := range c.Nodes {
		n.startSubsystems(opts)
	}
	return c, nil
}

// clusterMembers lists each cluster's members in ascending id order.
func clusterMembers(mem *model.Membership) [][]model.NodeID {
	out := make([][]model.NodeID, len(mem.ClusterNodes))
	for cl, ms := range mem.ClusterNodes {
		out[cl] = append([]model.NodeID(nil), ms...)
		slices.Sort(out[cl])
	}
	return out
}

// primer holds what every node of one deployment is primed from.
type primer struct {
	inst    *model.Instance
	assign  []model.ClusterID
	stored  func(k int) []catalog.DocID
	holders []protocol.View
	members [][]model.NodeID
}

// newPrimer derives the shared tables once per deployment; a nil place
// leaves every node holding only what it contributed.
func newPrimer(inst *model.Instance, assign []model.ClusterID, mem *model.Membership, place *replica.Placement) *primer {
	stored := func(k int) []catalog.DocID {
		if place != nil {
			return place.Stored[k]
		}
		return inst.Nodes[k].Contributed
	}
	return &primer{inst: inst, assign: assign, stored: stored,
		holders: buildHolders(inst, stored), members: clusterMembers(mem)}
}

// node opens node id's listener on addr (Options.Hooks.Listen, plain TCP
// by default), builds the node with the dial hook wired, and primes what
// both launch paths agree on: the documents it holds, the holder-view
// base, the DCRT and the cluster members. The NRT and the address book
// are each path's own. Adaptation without membership is refused: its
// moves ride the failure detector's probes.
func (p *primer) node(id model.NodeID, addr string, seed int64, opts Options) (*Node, error) {
	if opts.Adaptation != nil && !opts.Membership {
		return nil, errors.New("livenet: Options.Adaptation requires Options.Membership")
	}
	listen := opts.Hooks.Listen
	if listen == nil {
		listen = func(_ model.NodeID, addr string) (net.Listener, error) {
			return net.Listen("tcp", addr)
		}
	}
	ln, err := listen(id, addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen %s: %w", addr, err)
	}
	n := newNode(p.inst, id, ln, seed, opts)
	if dial := opts.Hooks.Dial; dial != nil {
		n.tr.setDial(func(addr string) (net.Conn, error) { return dial(id, addr) })
	}
	for _, d := range p.stored(int(id)) {
		n.holdDoc(d)
	}
	n.holders.base = p.holders
	n.members = p.members
	for cat, cl := range p.assign {
		if cl != model.NoCluster {
			n.dcrt[catalog.CategoryID(cat)] = protocol.DCRTEntry{Cluster: cl}
		}
	}
	return n, nil
}

// Close shuts every peer down and waits for their loops to exit.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		if n != nil {
			n.shutdown()
		}
	}
	for _, n := range c.Nodes {
		if n != nil {
			n.wg.Wait()
		}
	}
}

// shutdown signals every goroutine belonging to the node: the accept
// loop (listener), ticks and API calls (done), the transport writers,
// and the inbound read loops (closing their connections unblocks
// Decode). Idempotent.
func (n *Node) shutdown() {
	select {
	case <-n.done:
	default:
		close(n.done)
	}
	n.timersMu.Lock()
	stops := n.stopTimers
	n.stopTimers = nil
	n.timersMu.Unlock()
	for _, stop := range stops {
		stop()
	}
	n.ln.Close()
	n.tr.close()
	n.connsMu.Lock()
	for conn := range n.conns {
		conn.Close()
	}
	n.connsMu.Unlock()
}

func (n *Node) storeDoc(d catalog.DocID) {
	cat := n.inst.Catalog.Doc(d).Categories[0]
	if slices.Contains(n.byCat[cat], d) {
		return
	}
	n.byCat[cat] = append(n.byCat[cat], d)
}

func (n *Node) addNeighbor(cl model.ClusterID, nb model.NodeID) {
	if nb == n.id {
		return
	}
	for _, m := range n.nrt[cl] {
		if m == nb {
			return
		}
	}
	n.nrt[cl] = append(n.nrt[cl], nb)
}

// evictPeer removes a dead peer from every NRT entry (the transport
// reports it after repeated dial failures). Queries stop routing through
// the peer; if it comes back, hello/publish traffic re-adds it.
func (n *Node) evictPeer(peer model.NodeID) {
	evicted := false
	for cl, members := range n.nrt {
		kept := members[:0]
		for _, m := range members {
			if m == peer {
				evicted = true
				continue
			}
			kept = append(kept, m)
		}
		n.nrt[cl] = kept
	}
	if evicted {
		n.stats.NRTEvictions.Add(1)
	}
}

// acceptLoop registers incoming TCP connections and hands each to a
// read loop that decodes envelopes off the stream until it closes.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.connsMu.Lock()
		n.conns[conn] = struct{}{}
		n.connsMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop is the receive half of the persistent-connection transport:
// it accepts the stream's opening handshake, then decodes envelopes off
// the connection until it closes. A connection that opens with anything
// else, or carries a malformed frame (an id outside n.bounds included),
// is counted and closed.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.connsMu.Lock()
		delete(n.conns, conn)
		n.connsMu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(&countingConn{conn: conn, bytes: &n.stats.WireBytesIn}, readBufBytes)

	idle := lazyDeadline{window: n.readIdle, set: conn.SetReadDeadline}
	idle.touch()
	r, err := wire.AcceptStream(br, conn, n.bounds)
	if err != nil {
		if err != io.EOF {
			n.stats.WireHandshakeRejects.Add(1)
		}
		return
	}
	for {
		idle.touch()
		env, err := r.Next()
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				n.stats.WireBadFrames.Add(1)
			}
			return // stream closed, peer died, malformed frame, or idle timeout
		}
		n.routeInbound(env)
	}
}

// routeInbound handles one decoded envelope on its connection reader,
// in stream order. A query frame runs under routeMu.RLock, a result
// frame under the query table's lock, content frames against the store and
// the transfer table (chunk I/O under routeMu would stall membership and
// adaptation behind bulk work), and every other frame — publish, join,
// membership, adaptation — under routeMu.Lock, so it has taken effect
// before the reader decodes the frame behind it.
func (n *Node) routeInbound(env envelope) {
	switch m := env.Msg.(type) {
	case protocol.QueryMsg:
		n.handleQuery(m)
	case protocol.ResultMsg:
		n.handleResult(m)
	case wire.ManifestReq:
		n.serveManifestReq(env.From, m)
	case wire.ChunkReq:
		n.serveChunkReq(env.From, m)
	case wire.Manifest:
		n.deliverXfer(m.Xfer, env)
	case wire.Chunk:
		n.deliverXfer(m.Xfer, env)
	default:
		n.routeMu.Lock()
		n.dispatchControl(env)
		n.routeMu.Unlock()
	}
}

// dispatchControl runs one control frame. The caller holds routeMu.Lock
// and not the query table's lock, and nothing here takes it: a reader
// holding that lock may be waiting for RLock.
func (n *Node) dispatchControl(env envelope) {
	switch m := env.Msg.(type) {
	case protocol.PublishMsg:
		n.handlePublish(env.From, m)
	case protocol.PublishAckMsg:
		n.handlePublishAck(m)
	case helloMsg:
		n.handleHello(m)
	case bookMsg:
		n.handleBook(m)
	case membership.Ping:
		if n.det != nil {
			n.sendPackets(n.det.OnPing(env.From, m, n.io.now()))
			n.drainMembership()
		}
		n.applyMoves(m.Moves)
	case membership.Ack:
		if n.det != nil {
			n.sendPackets(n.det.OnAck(env.From, m, n.io.now()))
			n.drainMembership()
		}
		n.applyMoves(m.Moves)
	case membership.PingReq:
		if n.det != nil {
			n.sendPackets(n.det.OnPingReq(env.From, m, n.io.now()))
			n.drainMembership()
		}
		n.applyMoves(m.Moves)
	case membership.Leave:
		if n.det != nil {
			n.det.OnLeave(m, n.io.now())
			n.drainMembership()
		}
	case wire.LeaderLoad:
		n.handleLeaderLoad(m)
	}
}

// outFrame is one frame addressed off the address book, handed to the
// seam (nodeIO.send) on a lane. Messages are fire and forget —
// best-effort, exactly as in the simulator; the transport retries and
// reconnects under the hood. A frame is addressed under a node lock
// and, on the post lane, sent after the lock is released.
type outFrame struct {
	to   model.NodeID
	addr string // empty: no address, and the seam drops the frame
	msg  any
}

// route addresses msg to peer to off the address book, counting a peer
// it has no address for. The caller holds routeMu in either mode.
func (n *Node) route(to model.NodeID, msg any) outFrame {
	addr, ok := n.book.get(to)
	if !ok {
		n.stats.SendNoAddr.Add(1)
	}
	return outFrame{to: to, addr: addr, msg: msg}
}

// routeUnlocked is route for a goroutine that holds no node lock: it
// takes the routing read lock itself.
func (n *Node) routeUnlocked(to model.NodeID, msg any) outFrame {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	return n.route(to, msg)
}

// Sentinel errors shared with the facade — internal/query is the single
// definition point, aliased here so existing livenet callers keep
// compiling and errors.Is matches across packages.
var (
	// ErrTimeout reports a query that did not complete before its
	// deadline.
	ErrTimeout = query.ErrTimeout
	// ErrNoRoute reports a category with no DCRT entry or no reachable
	// members in its serving cluster — the caller gets an explicit error
	// instead of the load being silently dumped on cluster 0.
	ErrNoRoute = query.ErrNoRoute
	// ErrClosed reports an API call on a node that has shut down.
	ErrClosed = query.ErrClosed
	// ErrOverloaded reports a query rejected by admission control.
	ErrOverloaded = query.ErrOverloaded
)

// Publish announces a (locally stored) document to the cluster serving
// its category — the §6.2 protocol over TCP — through the first
// protocol.PublishFanout members of its NRT entry that are in the
// address book, the preference a query's entry send applies. Publishing
// a category with no DCRT entry, or into a cluster with no addressable
// member, fails with ErrNoRoute. The document must be in the catalog
// the deployment launched with: peers refuse frames naming any other.
func (n *Node) Publish(d catalog.DocID) error {
	if !n.bounds.HasDoc(d) {
		return fmt.Errorf("livenet: document %d is outside the %d-document catalog the deployment launched with", d, n.bounds.Docs)
	}
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if n.closed() {
		return ErrClosed
	}
	n.holdDoc(d)
	cat := n.inst.Catalog.Doc(d).Categories[0]
	sent := 0
	if entry, ok := n.dcrt[cat]; ok {
		for _, nb := range n.nrt[entry.Cluster] {
			if sent == protocol.PublishFanout {
				break
			}
			if n.book.has(nb) {
				n.io.send(n.route(nb, protocol.PublishMsg{Doc: d, Category: cat, Publisher: n.id}), laneQueue)
				sent++
			}
		}
	}
	if sent == 0 {
		n.stats.PublishNoRoute.Add(1)
		return ErrNoRoute
	}
	return nil
}

// handlePublish acknowledges a publish into a cluster this node can
// route; an unroutable category is dropped (and counted) rather than
// fabricating a cluster-0 entry.
func (n *Node) handlePublish(from model.NodeID, m protocol.PublishMsg) {
	entry, known := n.dcrt[m.Category]
	if !known {
		n.stats.DropNoRoute.Add(1)
		return
	}
	accepted := len(n.nrt[entry.Cluster]) > 0
	n.addNeighbor(entry.Cluster, m.Publisher)
	sample := n.nrt[entry.Cluster]
	if len(sample) > 8 {
		sample = sample[:8]
	}
	n.io.send(n.route(from, protocol.PublishAckMsg{
		Doc:      m.Doc,
		Category: m.Category,
		Entry:    entry,
		Accepted: accepted,
		Members:  append([]model.NodeID(nil), sample...),
	}), laneQueue)
}

// handlePublishAck merges the ack's DCRT row like a probe's (a corrupt
// ack plants no unbeatable counter) and learns the sampled members.
func (n *Node) handlePublishAck(m protocol.PublishAckMsg) {
	if n.applyMoveEntry(m.Category, m.Entry).Rejected {
		return
	}
	for _, nb := range m.Members {
		n.addNeighbor(m.Entry.Cluster, nb)
	}
}
