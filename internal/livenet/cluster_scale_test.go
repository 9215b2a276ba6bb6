package livenet

import (
	"net"
	"runtime"
	"testing"
	"time"

	"p2pshare/internal/chaos"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
)

// memnetHooks wires a cluster onto an in-process memnet fabric,
// optionally threading every dial through a chaos controller.
func memnetHooks(nw *memnet.Network, cn *chaos.Net) NetHooks {
	h := NetHooks{
		Listen: func(id model.NodeID, addr string) (net.Listener, error) {
			ln, err := nw.Listen(addr)
			if err == nil && cn != nil {
				cn.Register(id, ln.Addr().String())
			}
			return ln, err
		},
		Dial: func(_ model.NodeID, addr string) (net.Conn, error) { return nw.Dial(addr) },
	}
	if cn != nil {
		cn.SetDial(nw.Dial)
		h.Dial = cn.DialFrom
	}
	return h
}

// launchOverMemnet builds and boots a cluster of the given geometry on a
// fresh fabric.
func launchOverMemnet(t testing.TB, sh Shape, cn *chaos.Net, nw *memnet.Network, opts Options) *Cluster {
	t.Helper()
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = sh.Seed
	opts.Hooks = memnetHooks(nw, cn)
	c, err := Launch(inst, assign, place, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// queryAllCategories pushes one query per category through origin,
// returning how many succeeded.
func queryAllCategories(t *testing.T, c *Cluster, origin *Node) int {
	t.Helper()
	ok := 0
	for _, cat := range c.inst.Catalog.Cats {
		if _, err := origin.Query(cat.ID, 1, 5*time.Second); err == nil {
			ok++
		}
	}
	return ok
}

// waitStreamsClosed blocks until no transport across the cluster runs a
// writer or holds a stream (or the deadline passes).
func waitStreamsClosed(t *testing.T, c *Cluster, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		active, open := int64(0), 0
		for _, n := range c.Nodes {
			active += n.tr.writers()
			open += openStreams(n.tr)
		}
		if active == 0 && open == 0 {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("%d transport writers and %d streams still open after %v", active, open, deadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestParkedWriterSurvivesAddressChange is the idle-close regression
// pin: traffic flows, the idle tick closes every stream, every node then
// MOVES to a new listen address (what a membership refresh delivers as
// an updated address book), and resumed traffic must still deliver —
// the writers the next frames spawn have to pick up the refreshed
// address, re-dial, and open a fresh stream. Chaos middleware with
// seeded delay/jitter rides every link to keep the fault layer in the
// loop.
func TestParkedWriterSurvivesAddressChange(t *testing.T) {
	nw := memnet.New()
	cn := chaos.New(7)
	cn.SetDefault(chaos.Faults{Delay: time.Millisecond, Jitter: 2 * time.Millisecond})
	sh := Shape{Documents: 240, Categories: 8, Nodes: 12, Clusters: 3, Seed: 7}
	c := launchOverMemnet(t, sh, cn, nw, Options{
		CacheBytes: -1, // phase-2 queries must hit the network, not a cache
		WriterIdle: 120 * time.Millisecond,
	})
	origin := c.Nodes[0]

	if got := queryAllCategories(t, c, origin); got != len(c.inst.Catalog.Cats) {
		t.Fatalf("pre-close queries: %d/%d delivered", got, len(c.inst.Catalog.Cats))
	}
	waitStreamsClosed(t, c, 10*time.Second)
	if closes := origin.Stats()["transport_idle_closes"]; closes == 0 {
		t.Fatal("no stream ever closed despite a 120ms idle bound")
	}
	dialsAfterClose := origin.Stats()["transport_dials"]

	// Move every node: new listener on the fabric, old one closed so the
	// stale address genuinely refuses dials, and every address book
	// refreshed the way a membership Alive round would.
	newAddrs := make(map[model.NodeID]string, len(c.Nodes))
	for _, n := range c.Nodes {
		ln2, err := nw.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln2.Close() })
		cn.Register(n.id, ln2.Addr().String())
		newAddrs[n.id] = ln2.Addr().String()
		n.ln.Close()
		go func(n *Node, ln net.Listener) { // acceptLoop's twin on the new address
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				n.connsMu.Lock()
				n.conns[conn] = struct{}{}
				n.connsMu.Unlock()
				n.wg.Add(1)
				go n.readLoop(conn)
			}
		}(n, ln2)
	}
	for _, n := range c.Nodes {
		for id, addr := range newAddrs {
			if id != n.id {
				n.book.set(id, addr)
			}
		}
	}

	if got := queryAllCategories(t, c, origin); got != len(c.inst.Catalog.Cats) {
		t.Fatalf("post-move queries: %d/%d delivered", got, len(c.inst.Catalog.Cats))
	}
	if dials := origin.Stats()["transport_dials"]; dials <= dialsAfterClose {
		t.Fatalf("no fresh dials after the move (before %d, after %d) — the next writers must re-dial",
			dialsAfterClose, dials)
	}
	// A peerConn's addr refreshes on the next enqueue to it, so only the
	// peers phase 2 actually touched move — but at least one must have.
	refreshed := 0
	origin.tr.mu.Lock()
	for to, p := range origin.tr.peers {
		if p.addr == newAddrs[to] {
			refreshed++
		}
	}
	origin.tr.mu.Unlock()
	if refreshed == 0 {
		t.Fatal("no peer conn picked up its refreshed address")
	}
}

// TestIdleClusterGoroutineBudget pins the idle-resource property the
// 10k-node benchmark rests on: a booted node costs a FIXED number of
// goroutines (accept only) regardless of peer count; after traffic, a
// link at rest costs one goroutine, the reader on its accepting side,
// and no writer; and once the idle tick closes the streams, the remote
// read loops drain away and the cluster returns to the boot budget.
func TestIdleClusterGoroutineBudget(t *testing.T) {
	nodes := 500
	if raceEnabled {
		nodes = 150 // race-instrumented goroutines are heavy; the property is scale-free
	}
	nw := memnet.New()
	sh := Shape{Documents: 2 * nodes, Categories: 20, Nodes: nodes, Clusters: 5, Seed: 51}
	g0 := runtime.NumGoroutine()
	c := launchOverMemnet(t, sh, nil, nw, Options{
		CacheBytes: -1,
		WriterIdle: 2 * time.Second, // no stream closes before the reading at rest
	})

	// accept = 1 per node; the slack covers the shared timer wheel and
	// runtime goroutines without masking a per-peer leak (which would
	// scale with peers, not nodes).
	const slack = 16
	budget := nodes + slack
	if g := runtime.NumGoroutine() - g0; g > budget {
		t.Fatalf("idle %d-node cluster costs %d goroutines, budget %d", nodes, g, budget)
	}

	// Drive traffic from a handful of origins. Then, before any stream
	// closes, the cluster holds one reader per open link and no writer.
	for i := 0; i < 10; i++ {
		origin := c.Nodes[(i*97)%len(c.Nodes)]
		cat := c.inst.Catalog.Cats[(i*13)%len(c.inst.Catalog.Cats)]
		if _, err := origin.Query(cat.ID, 1, 5*time.Second); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	var g, inbound int
	var writers int64
	atRest := func() bool {
		g, inbound, writers = runtime.NumGoroutine()-g0, 0, 0
		for _, n := range c.Nodes {
			writers += n.tr.writers()
			n.connsMu.Lock()
			inbound += len(n.conns)
			n.connsMu.Unlock()
		}
		return writers == 0 && g <= nodes+inbound+slack
	}
	end := time.Now().Add(5 * time.Second)
	for !atRest() {
		if time.Now().After(end) {
			t.Fatalf("links at rest: %d goroutines over baseline with %d writers, budget %d nodes + %d open links + %d",
				g, writers, nodes, inbound, slack)
		}
		time.Sleep(10 * time.Millisecond)
	}
	closes := int64(0)
	for _, n := range c.Nodes {
		closes += n.stats.TransportIdleCloses.Load()
	}
	if inbound == 0 || closes != 0 {
		t.Fatalf("the reading at rest saw %d open links after %d idle closes; want links open, none closed", inbound, closes)
	}
	t.Logf("links at rest: %d goroutines over baseline for %d nodes and %d open links", g, nodes, inbound)

	// Once the idle tick closes every stream, the cluster falls back
	// under the boot budget.
	waitStreamsClosed(t, c, 10*time.Second)
	end = time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine() - g0; g <= budget {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("cluster did not return to idle budget: %d goroutines over baseline, budget %d",
				runtime.NumGoroutine()-g0, budget)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestThousandNodeClusterOverMemnet boots the CI-scale live cluster —
// every node a real Node with listeners, query tables, and transports on
// the memnet fabric — and serves queries across it. This is the test
// suite's smoke for the paper-scale path the p2pbench scale-* plans
// measure; under -race it boots 250 nodes.
func TestThousandNodeClusterOverMemnet(t *testing.T) {
	nodes := 1000
	if raceEnabled {
		nodes = 250
	}
	nw := memnet.New()
	sh := Shape{Documents: 2 * nodes, Categories: 30, Nodes: nodes, Clusters: 10, Seed: 31}
	start := time.Now()
	c := launchOverMemnet(t, sh, nil, nw, Options{
		CacheBytes: -1,
		WriterIdle: 200 * time.Millisecond,
	})
	t.Logf("booted %d nodes in %v", nodes, time.Since(start))

	for i := 0; i < 30; i++ {
		origin := c.Nodes[(i*131)%len(c.Nodes)]
		cat := c.inst.Catalog.Cats[(i*7)%len(c.inst.Catalog.Cats)]
		if _, err := origin.Query(cat.ID, 1, 10*time.Second); err != nil {
			t.Fatalf("query %d from node %d: %v", i, origin.id, err)
		}
	}
	if w := c.Nodes[0].Stats()["transport_writers_active"]; w < 0 {
		t.Fatalf("writers gauge went negative: %d", w)
	}
}
