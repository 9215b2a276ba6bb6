package livenet

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"time"

	"p2pshare/internal/model"
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
	d, err := sh.deploy()
	if err != nil {
		return nil, nil, nil, err
	}
	return d.Inst, d.Assign, d.Place, nil
}

// deploy derives the shape's full deployment under the paper's
// placement parameters.
func (sh Shape) deploy() (*replica.Deployment, error) {
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = sh.Documents
	cfg.Catalog.NumCats = sh.Categories
	cfg.NumNodes = sh.Nodes
	cfg.NumClusters = sh.Clusters
	cfg.Seed = sh.Seed
	if sh.DocBytes > 0 {
		cfg.Catalog.DocSize = sh.DocBytes
	}
	return replica.Deploy(cfg, replica.DefaultConfig())
}

// StartNode boots ONE live peer of a deployment (for the multi-process
// p2pnode binary): it reconstructs the model from the shape, takes the
// role of node `id` (storing what the placement assigned to it), listens
// on listenAddr, and — when bootstrapAddr is non-empty — announces itself
// to the existing deployment and fetches the address book. Options is
// the same knob surface Launch takes, with the same meaning; only a zero
// Options.Seed differs: it means Shape.Seed, the deployment seed, so
// every process derives identical node-local randomness without
// repeating it. A standalone deployment faces real churn, so a caller
// that wants the failure detector sets Options.Membership.
func StartNode(sh Shape, id model.NodeID, listenAddr, bootstrapAddr string, opts Options) (*Node, error) {
	d, err := sh.deploy()
	if err != nil {
		return nil, err
	}
	if int(id) < 0 || int(id) >= len(d.Inst.Nodes) {
		return nil, fmt.Errorf("livenet: node id %d outside shape (0..%d)", id, len(d.Inst.Nodes)-1)
	}
	n, err := newPrimer(d.Inst, d.Assign, d.Mem, d.Place).node(id, listenAddr, cmp.Or(opts.Seed, sh.Seed), opts)
	if err != nil {
		return nil, err
	}
	// NRT: this process cannot know which peers are up; it relies on the
	// address book to find them. Route every cluster through the book:
	// members are discovered as hellos arrive. Prime with the static
	// membership so cluster routing knows WHO belongs WHERE; liveness is
	// the book's job.
	for c := 0; c < d.Inst.NumClusters; c++ {
		for _, m := range d.Mem.NodesOf(model.ClusterID(c)) {
			if m != id {
				n.addNeighbor(model.ClusterID(c), m)
			}
		}
	}
	n.startLoops()
	n.startSubsystems(opts)

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
	hello := envelope{From: n.id, Msg: helloMsg{ID: n.id, Addr: n.Addr()}}
	// A local rng: n.rng is control state, and this wait must not hold
	// routeMu.
	rng := rand.New(rand.NewPCG(uint64(n.id)*2654435761+17, 0))
	const dialAttempts = 6
	var err error
	for attempt := 1; ; attempt++ {
		if err = sendOnce(bootstrapAddr, hello); err == nil {
			break
		}
		if attempt >= dialAttempts {
			return err
		}
		n.stats.AnnounceRetries.Add(1)
		if !n.tr.backoff(rng, attempt) {
			return ErrClosed // node shut down while waiting
		}
	}
	// The book arrives asynchronously; poll briefly so the caller can
	// query immediately after joining, re-announcing between polls.
	for attempt := 0; attempt < 5; attempt++ {
		deadline := n.io.now().Add(600 * time.Millisecond)
		for n.io.now().Before(deadline) {
			if n.KnownPeers() > 1 {
				return nil
			}
			poll, _ := n.io.after(20 * time.Millisecond)
			<-poll
		}
		if attempt < 4 && sendOnce(bootstrapAddr, hello) != nil {
			n.stats.AnnounceRetries.Add(1)
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

// handleHello merges a (re)joining node into the book. The node the
// newcomer contacted itself (from is the newcomer) replies with the full
// book and forwards the hello, in id order, to every peer it knew
// before, so the whole deployment learns the address without a
// broadcast storm. A forwarded hello is merged and nothing more: it is
// neither answered nor forwarded again. A duplicate announcement — a
// peer restarting on its old address — still gets the book reply (the
// restarted process lost its copy); only the forwarding is suppressed.
func (n *Node) handleHello(from model.NodeID, m helloMsg) {
	known, _ := n.book.get(m.ID)
	duplicate := known == m.Addr
	contacted := from == m.ID
	var prior []model.NodeID
	if contacted && !duplicate {
		prior = make([]model.NodeID, 0, n.book.len())
		n.book.forEachByID(func(id model.NodeID, _ string) {
			if id != n.id && id != m.ID {
				prior = append(prior, id)
			}
		})
	}
	n.book.set(m.ID, m.Addr)
	if n.det != nil {
		// A hello is firsthand liveness evidence: it resurrects even a
		// tombstoned peer (the node really is back), with an incarnation
		// past the tombstone so the comeback out-gossips the death.
		n.det.Rejoin(m.ID, m.Addr, n.io.now())
		n.drainMembership()
	}
	if !contacted {
		return
	}
	reply := bookMsg{Book: n.book.snapshot()}
	if n.det != nil {
		reply.Dead = n.det.Tombstones()
	}
	n.io.send(n.route(m.ID, reply), laneQueue)
	for _, id := range prior {
		n.io.send(n.route(id, m), laneQueue)
	}
}

// handleBook merges a received address book. Merging is secondhand
// evidence: tombstones ride along (wire.Book.Dead) and are applied
// first, and entries for peers this node's membership view has
// confirmed dead are dropped rather than resurrected — only firsthand
// contact (a hello, a ping) brings a tombstoned peer back.
func (n *Node) handleBook(m bookMsg) {
	now := n.io.now()
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
