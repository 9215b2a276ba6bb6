package livenet

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/core"
	"p2pshare/internal/membership"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
	"p2pshare/internal/wire"
)

// Dynamic membership over TCP: a standalone peer joins an existing live
// deployment knowing only one member's address. The content model is NOT
// shipped over the wire — every participant reconstructs the identical
// instance (catalog, balancing, placement) from the shared seed and shape
// parameters, exactly as deterministic generation guarantees; the
// handshake only exchanges the one thing that differs per deployment: the
// address book.

// helloMsg announces a (re)joining node and its listen address; bookMsg
// shares the sender's address book.
type (
	helloMsg = wire.Hello
	bookMsg  = wire.Book
)

// Shape are the deterministic-generation parameters every process of one
// deployment must share (put them on the command line of each p2pnode).
type Shape struct {
	Documents  int
	Categories int
	Nodes      int
	Clusters   int
	Seed       int64
	// DocBytes is the size of every document in bytes; 0 keeps the
	// model default (the paper's 4 MB MP3 example). The content data
	// plane sizes its synthetic bytes — and therefore every transfer —
	// from this, so all processes of a deployment must agree on it.
	DocBytes int64
}

// Build reconstructs the deployment's model: instance, MaxFair
// assignment, and replica placement — identical in every process that
// uses the same Shape.
func (sh Shape) Build() (*model.Instance, []model.ClusterID, *replica.Placement, error) {
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = sh.Documents
	cfg.Catalog.NumCats = sh.Categories
	cfg.NumNodes = sh.Nodes
	cfg.NumClusters = sh.Clusters
	cfg.Seed = sh.Seed
	if sh.DocBytes > 0 {
		cfg.Catalog.DocSize = sh.DocBytes
	}
	inst, err := model.Generate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := core.MaxFair(inst, core.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	mem, err := model.NewMembership(inst, res.Assignment)
	if err != nil {
		return nil, nil, nil, err
	}
	place, err := replica.Place(inst, res.Assignment, mem, replica.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	return inst, res.Assignment, place, nil
}

// StartNode boots ONE live peer of a deployment (for the multi-process
// p2pnode binary): it reconstructs the model from the shape, takes the
// role of node `id` (storing what the placement assigned to it), listens
// on listenAddr, and — when bootstrapAddr is non-empty — announces itself
// to the existing deployment and fetches the address book. Options is
// the same birth-time knob surface Launch takes (hooks,
// admission, cache, membership, adaptation); its zero value matches the
// historical StartNode defaults, with one path difference: membership is
// ON by default here (standalone deployments face real churn), and
// Options.Seed zero means Shape.Seed — the deployment seed — so every
// process derives identical node-local randomness without repeating it.
func StartNode(sh Shape, id model.NodeID, listenAddr, bootstrapAddr string, opts Options) (*Node, error) {
	inst, assign, place, err := sh.Build()
	if err != nil {
		return nil, err
	}
	if int(id) < 0 || int(id) >= len(inst.Nodes) {
		return nil, fmt.Errorf("livenet: node id %d outside shape (0..%d)", id, len(inst.Nodes)-1)
	}
	listen := opts.Hooks.Listen
	if listen == nil {
		listen = func(_ model.NodeID, addr string) (net.Listener, error) {
			return net.Listen("tcp", addr)
		}
	}
	ln, err := listen(id, listenAddr)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen %s: %w", listenAddr, err)
	}
	seed := sh.Seed
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	n := newNode(inst, id, ln, seed, opts)
	if opts.Hooks.Dial != nil {
		dial := opts.Hooks.Dial
		n.tr.setDial(func(addr string) (net.Conn, error) { return dial(id, addr) })
	}
	for _, d := range place.Stored[id] {
		n.holdDoc(d)
	}
	n.holders.base = buildHolders(inst, func(k int) []catalog.DocID { return place.Stored[k] })
	for cat, cl := range assign {
		if cl != model.NoCluster {
			n.dcrt[catalog.CategoryID(cat)] = protocol.DCRTEntry{Cluster: cl}
		}
	}
	// NRT: this process cannot know which peers are up; it relies on the
	// address book to find them. Route every cluster through the book:
	// members are discovered as hellos arrive. Prime with the static
	// membership so cluster routing knows WHO belongs WHERE; liveness is
	// the book's job.
	mem, err := model.NewMembership(inst, assign)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.members = clusterMembers(mem)
	for c := 0; c < inst.NumClusters; c++ {
		for _, m := range mem.NodesOf(model.ClusterID(c)) {
			if m != id {
				n.addNeighbor(model.ClusterID(c), m)
			}
		}
	}
	n.startLoops()

	// Standalone deployments face real churn, so the failure detector is
	// on by default (Launch-style in-process clusters opt in with
	// Cluster.StartMembership or Options.Membership); a non-nil
	// Options.Membership only overrides its timing.
	mcfg := membership.Config{}
	if opts.Membership != nil {
		mcfg = *opts.Membership
	}
	n.StartMembership(mcfg)
	if opts.Adaptation != nil {
		n.EnableAdaptation(*opts.Adaptation)
	}

	if bootstrapAddr != "" {
		if err := n.announce(bootstrapAddr); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// Close shuts down a standalone node and waits for all of its goroutines
// (accept loop, ticks, pull workers, transport writers, inbound read
// loops).
func (n *Node) Close() {
	n.shutdown()
	n.wg.Wait()
}

// announce sends a hello to the bootstrap address directly (it is not in
// the book yet) and waits for the book to arrive. The initial dial is
// retried under the transport's capped backoff+jitter — a bootstrap
// that is briefly down at startup (restarting, racing this process's
// launch) must not permanently fail the join. The hello is also re-sent
// a few times while waiting for the book: the bootstrap's reply can be
// lost into a stale stream it still holds toward our pre-restart
// incarnation, and only its next send (after the reconnect) gets
// through. A re-send that fails is one more retry, not the end of a
// join that already reached the bootstrap.
func (n *Node) announce(bootstrapAddr string) error {
	hello := func() error {
		conn, err := net.DialTimeout("tcp", bootstrapAddr, 3*time.Second)
		if err != nil {
			return fmt.Errorf("livenet: bootstrap %s: %w", bootstrapAddr, err)
		}
		defer conn.Close()
		if err := wire.OpenStream(conn, handshakeTimeout); err != nil {
			return fmt.Errorf("livenet: announce: %w", err)
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		bw := bufio.NewWriter(conn)
		err = wire.WriteEnvelope(bw, envelope{From: n.id, Msg: helloMsg{ID: n.id, Addr: n.Addr()}})
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			return fmt.Errorf("livenet: announce: %w", err)
		}
		return nil
	}
	// A local rng: n.rng is control state, and this wait must not hold
	// routeMu.
	rng := rand.New(rand.NewPCG(uint64(n.id)*2654435761+17, 0))
	const dialAttempts = 6
	var err error
	for attempt := 1; ; attempt++ {
		if err = hello(); err == nil {
			break
		}
		if attempt >= dialAttempts {
			return err
		}
		n.stats.Add("announce_retries", 1)
		if !n.tr.backoff(rng, attempt) {
			return ErrClosed // node shut down while waiting
		}
	}
	// The book arrives asynchronously; poll briefly so the caller can
	// query immediately after joining, re-announcing between polls.
	for attempt := 0; attempt < 5; attempt++ {
		deadline := time.Now().Add(600 * time.Millisecond)
		for time.Now().Before(deadline) {
			if n.KnownPeers() > 1 {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		if attempt < 4 && hello() != nil {
			n.stats.Add("announce_retries", 1)
		}
	}
	return fmt.Errorf("livenet: no address book received from %s", bootstrapAddr)
}

// KnownPeers reports how many peers (including itself) the node can
// address, read under the routing read lock.
func (n *Node) KnownPeers() int {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	return n.book.len()
}

// Peers snapshots the node's address book (id → listen address),
// including itself. Fault-injection layers use it to attribute links by
// node id; treat the copy as read-only truth at the time of the call.
func (n *Node) Peers() map[model.NodeID]string {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	return n.book.snapshot()
}

// handleHello merges the newcomer into the book, replies with the full
// book, and forwards the hello once to every peer this node knew before
// (so the whole deployment learns the address without a broadcast storm).
// A duplicate announcement — a peer restarting on its old address —
// still gets the book reply (the restarted process lost its copy); only
// the forwarding is suppressed.
func (n *Node) handleHello(m helloMsg) {
	known, _ := n.book.get(m.ID)
	duplicate := known == m.Addr
	prior := make([]model.NodeID, 0, n.book.len())
	n.book.forEach(func(id model.NodeID, _ string) bool {
		if id != n.id && id != m.ID {
			prior = append(prior, id)
		}
		return true
	})
	n.book.set(m.ID, m.Addr)
	if n.det != nil {
		// A hello is firsthand liveness evidence: it resurrects even a
		// tombstoned peer (the node really is back), with an incarnation
		// past the tombstone so the comeback out-gossips the death.
		n.det.Rejoin(m.ID, m.Addr, time.Now())
		n.drainMembership()
	}
	reply := bookMsg{Book: n.book.snapshot()}
	if n.det != nil {
		reply.Dead = n.det.Tombstones()
	}
	n.send(m.ID, reply)
	if duplicate {
		return
	}
	for _, id := range prior {
		n.send(id, m)
	}
}

// handleBook merges a received address book. Merging is secondhand
// evidence: tombstones ride along (wire.Book.Dead) and are applied
// first, and entries for peers this node's membership view has
// confirmed dead are dropped rather than resurrected — only firsthand
// contact (a hello, a ping) brings a tombstoned peer back.
func (n *Node) handleBook(m bookMsg) {
	now := time.Now()
	if n.det != nil {
		for id, inc := range m.Dead {
			// A tombstone about this node itself is refuted inside the
			// detector (incarnation bump + alive rumor).
			n.det.ApplyTombstone(id, inc, now)
		}
	}
	for id, addr := range m.Book {
		if id == n.id {
			continue
		}
		if n.det != nil {
			n.det.Observe(id, addr, now)
			if !n.det.IsLive(id) {
				continue // confirmed dead; do not resurrect the entry
			}
		}
		n.book.set(id, addr)
	}
	if n.det != nil {
		n.drainMembership()
	}
}
