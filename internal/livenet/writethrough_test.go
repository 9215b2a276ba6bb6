package livenet

import (
	"bufio"
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/wire"
)

// sinkTransport is a transport from node 1 to one memnet sink (node 2),
// with the given writer idle timeout; got receives each envelope the
// sink reads.
func sinkTransport(t *testing.T, idle time.Duration) (tr *transport, stats *counters, addr string, got chan envelope) {
	t.Helper()
	nw := memnet.New()
	ln, err := nw.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	got = make(chan envelope, 16)
	serveSink(t, ln, nil, func(env envelope) { got <- env })
	stats = new(counters)
	tr = newTransport(1, 1, stats)
	tr.writerIdle = idle
	tr.setDial(nw.Dial)
	t.Cleanup(tr.close)
	return tr, stats, ln.Addr().String(), got
}

// recvOne waits for the sink to read one envelope.
func recvOne(t *testing.T, got chan envelope) {
	t.Helper()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the sink read nothing for 5 s")
	}
}

// TestWriteThroughBooks: on a warm link, a closed loop of sends — each
// waits until the sink has read the one before — goes out almost
// entirely by write-through, and the books close: every frame the sink
// read is one transport_sends, each send is either a write-through
// (counted on the sending goroutine before send returns) or a frame the
// writer flushed, each is one envelope in the batch histogram, and a
// write-through counts as one reuse. The same holds for a closed query
// loop on a two-node cluster.
func TestWriteThroughBooks(t *testing.T) {
	tr, stats, addr, got := sinkTransport(t, -1)
	const frames = 400
	through, queued := 0, 0
	for i := 0; i < frames; i++ {
		before := stats.TransportWriteThrough.Load()
		tr.send(2, addr, queryEnv(uint64(i)), lanePost)
		if stats.TransportWriteThrough.Load() == before+1 {
			through++
		} else {
			queued++
		}
		recvOne(t, got)
	}
	waitFor(t, 5*time.Second, "every writer flush recorded", func() bool {
		return tr.batches.Sum() == frames
	})
	st := stats.snapshot()
	if st["transport_sends"] != frames || st["transport_sends"] != int64(through+queued) {
		t.Fatalf("transport_sends = %d, want %d frames read = %d written through + %d flushed by the writer",
			st["transport_sends"], frames, through, queued)
	}
	if st["transport_write_through"] != int64(through) {
		t.Fatalf("transport_write_through = %d, the sending goroutines saw %d", st["transport_write_through"], through)
	}
	// The first frame dials through the writer; a later one goes to the
	// writer only if it caught the writer still releasing wmu after that
	// flush.
	if queued < 1 || queued > 3 || st["transport_dials"] != 1 {
		t.Errorf("%d frames went to the writer over %d dials; want the first, which dials, and at most two more", queued, st["transport_dials"])
	}
	if st["transport_reuses"] < int64(through) {
		t.Errorf("transport_reuses = %d, below the %d write-throughs", st["transport_reuses"], through)
	}

	c := launchOverMemnet(t, twoNodeShape(), nil, memnet.New(), Options{CacheBytes: -1, WriterIdle: -1})
	cat := bigCategory(c.inst)
	for i := 0; i < 300; i++ {
		if _, err := c.Nodes[i%2].QueryContext(context.Background(), cat, 1); err != nil {
			t.Fatal(err)
		}
	}
	var sends, wt, batched float64
	waitFor(t, 5*time.Second, "every writer flush recorded", func() bool {
		sends, wt, batched = 0, 0, 0
		for _, n := range c.Nodes {
			sends += float64(n.stats.TransportSends.Load())
			wt += float64(n.stats.TransportWriteThrough.Load())
			batched += n.tr.batches.Sum()
		}
		return batched == sends
	})
	if wt < 0.9*sends {
		t.Errorf("closed query loop: %.0f of %.0f sends written through, want ≥ 90%%", wt, sends)
	}
	t.Logf("closed query loop: %.0f of %.0f sends written through", wt, sends)
}

// TestWriteThroughKeepsLinkAwake: the idle tick counts write-throughs,
// which no writer sees. A link written through every writerIdle/2 keeps
// its one stream across several idle windows, with no writer running
// once the first frame, which dials, is out; once the link goes silent
// the tick closes its stream, and the next frame dials a fresh one.
func TestWriteThroughKeepsLinkAwake(t *testing.T) {
	const idle = 200 * time.Millisecond
	tr, stats, addr, got := sinkTransport(t, idle)
	tr.send(2, addr, queryEnv(0), lanePost) // spawns a writer, which dials
	recvOne(t, got)
	for i := 1; i <= 12; i++ { // 1.2 s: six idle windows
		time.Sleep(idle / 2)
		tr.send(2, addr, queryEnv(uint64(i)), lanePost)
		recvOne(t, got)
	}
	st := stats.snapshot()
	if st["transport_dials"] != 1 || st["transport_idle_closes"] != 0 || tr.writers() != 0 {
		t.Fatalf("busy link: dials %d, idle closes %d, writers %d; want 1, 0, 0 (%v)",
			st["transport_dials"], st["transport_idle_closes"], tr.writers(), st)
	}
	if st["transport_write_through"] != 12 {
		t.Fatalf("transport_write_through = %d, want 12", st["transport_write_through"])
	}
	waitFor(t, 5*idle, "the silent link's stream closed", func() bool {
		return stats.TransportIdleCloses.Load() == 1 && openStreams(tr) == 0
	})
	tr.send(2, addr, queryEnv(13), lanePost)
	recvOne(t, got)
	if dials := stats.TransportDials.Load(); dials != 2 {
		t.Fatalf("after the idle close: %d dials, want 2", dials)
	}
}

// openStreams counts tr's links that hold a stream.
func openStreams(tr *transport) int {
	tr.mu.Lock()
	links := make([]*peerConn, 0, len(tr.peers))
	for _, p := range tr.peers {
		links = append(links, p)
	}
	tr.mu.Unlock()
	open := 0
	for _, p := range links {
		p.wmu.Lock()
		if p.conn != nil {
			open++
		}
		p.wmu.Unlock()
	}
	return open
}

// TestWriteThroughAllocs pins the fast path's allocations: writing one
// query frame through to a warm memnet link allocates nothing — the
// one-envelope batch stays on the stack, the write buffer and the
// encode buffer come from their pools. The sink discards bytes
// undecoded, so the count is the sender's alone.
func TestWriteThroughAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	nw := memnet.New()
	ln, err := nw.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	serveSink(t, ln, func(_ int, conn net.Conn) bool {
		br := bufio.NewReader(conn)
		if _, err := wire.AcceptStream(br, conn, wire.Unbounded); err != nil {
			return true
		}
		buf := make([]byte, 4<<10)
		for {
			if _, err := br.Read(buf); err != nil {
				return true
			}
		}
	}, nil)
	stats := new(counters)
	tr := newTransport(1, 1, stats)
	tr.writerIdle = -1
	tr.setDial(nw.Dial)
	defer tr.close()
	addr := ln.Addr().String()
	env := queryEnv(7)
	tr.send(2, addr, env, lanePost)
	waitFor(t, 5*time.Second, "the writer's first flush", func() bool { return stats.TransportSends.Load() == 1 })
	for i := 0; i < 100; i++ {
		tr.send(2, addr, env, lanePost) // warm the pools and the fabric's ring
	}
	before := stats.TransportWriteThrough.Load()
	if avg := testing.AllocsPerRun(1000, func() { tr.send(2, addr, env, lanePost) }); avg > 0 {
		t.Fatalf("a write-through allocates %.1f per frame, budget 0", avg)
	}
	if through := stats.TransportWriteThrough.Load() - before; through != 1001 {
		t.Fatalf("%d of 1001 measured sends written through: the pin measured the writer", through)
	}
}

// testBlockedWriteThrough is TestBlockedWriteFailsWithinTimeout's
// write-through case: a caller whose entry frame is written through to
// a peer that stopped reading waits on the peer's full buffer and
// returns within writeTimeout; its frame goes back to the writer, which
// redials and retries it. While the caller is blocked, the node's tables
// and a query over another link answer within 100 ms: no node lock is
// held across the write.
func testBlockedWriteThrough(t *testing.T) {
	nw := memnet.NewSized(4 << 10) // a "socket buffer" a few hundred entry frames fill
	c := launchOverMemnet(t, Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9},
		nil, nw, Options{CacheBytes: -1})
	origin := c.Nodes[0]
	stalled, other := stallPeerCategories(t, c, origin)
	member := pickMember(t, origin, stalled, origin.id)
	live := pickMember(t, origin, other, origin.id, member)

	// The stalled peer: acks the handshake, then never reads.
	ln, err := nw.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted = append(accepted, conn)
			mu.Unlock()
			go wire.AcceptStream(bufio.NewReader(conn), conn, wire.Unbounded)
		}
	}()
	t.Cleanup(func() { // unblock the writer's retries before the cluster closes
		ln.Close()
		mu.Lock()
		for _, conn := range accepted {
			conn.Close()
		}
		mu.Unlock()
	})
	// Only the stalled category's entry frames go to the stalled peer; the
	// other category's go to a live peer, over a warm link.
	locked(origin, func(n *Node) { n.book.set(member, ln.Addr().String()) })
	routeVia(t, origin, stalled, member)
	routeVia(t, origin, other, live)
	if _, err := origin.Query(other, 1, 5*time.Second); err != nil {
		t.Fatalf("query over another link: %v", err)
	}

	// Flood entry frames at the stalled peer until one blocks.
	var callStart atomic.Int64 // unix nanos of the outstanding call; 0 = none
	blockedFor := make(chan time.Duration, 1)
	go func() {
		for i := 0; i < 5000; i++ {
			start := time.Now()
			callStart.Store(start.UnixNano())
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			_, err := origin.QueryContext(ctx, stalled, 1)
			cancel()
			callStart.Store(0)
			if took := time.Since(start); took > 100*time.Millisecond {
				blockedFor <- took
				return
			}
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("query %d to the stalled peer: %v, want ErrTimeout", i, err)
				blockedFor <- 0
				return
			}
		}
		blockedFor <- 0
	}()
	waitFor(t, 10*time.Second, "a caller blocked on the stalled peer's buffer", func() bool {
		s := callStart.Load()
		return s != 0 && time.Since(time.Unix(0, s)) > 50*time.Millisecond
	})
	start := time.Now()
	origin.TableSizes()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("TableSizes took %v while a caller was blocked writing", took)
	}
	start = time.Now()
	if _, err := origin.Query(other, 1, 5*time.Second); err != nil {
		t.Fatalf("query over another link: %v", err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("a query over another link took %v while a caller was blocked writing", took)
	}
	if callStart.Load() == 0 {
		t.Fatal("the blocked caller returned before the checks ran; they proved nothing")
	}

	took := <-blockedFor
	if took == 0 {
		t.Fatal("no write-through ever blocked")
	}
	if took > writeTimeout+250*time.Millisecond {
		t.Fatalf("the blocked caller returned after %v, want within writeTimeout %v", took, writeTimeout)
	}
	waitFor(t, 5*time.Second, "the failed frame retried by the writer", func() bool {
		st := origin.Stats()
		return st["transport_reconnects"] >= 1 && st["transport_retries"] >= 1 && st["transport_dials"] >= 2
	})
}

// pickMember returns a launch member of the cluster serving cat that is
// none of not.
func pickMember(t *testing.T, n *Node, cat catalog.CategoryID, not ...model.NodeID) model.NodeID {
	t.Helper()
	for _, id := range n.members[n.dcrtEntryForTest(cat).Cluster] {
		if !slices.Contains(not, id) {
			return id
		}
	}
	t.Fatalf("the cluster serving category %d has no member outside %v", cat, not)
	return -1
}

// stallPeerCategories picks two categories origin routes to different
// clusters.
func stallPeerCategories(t *testing.T, c *Cluster, origin *Node) (stalled, other catalog.CategoryID) {
	t.Helper()
	stalled = bigCategory(c.inst)
	for _, cat := range c.inst.Catalog.Cats {
		if len(cat.Docs) > 0 && origin.dcrtEntryForTest(cat.ID).Cluster != origin.dcrtEntryForTest(stalled).Cluster {
			return stalled, cat.ID
		}
	}
	t.Fatal("every category is served by one cluster")
	return
}

// TestWriteThroughCycleNoDeadlock: three nodes whose streams buffer 4 KB
// flood queries at each other in a cycle — each node's entry member is
// the next node, and readers answer and forward by write-through. Every
// query completes, the query equation holds, and no stream is ever
// dropped on a write timeout (transport_reconnects 0): readers writing
// through do not deadlock on each other's buffers.
func TestWriteThroughCycleNoDeadlock(t *testing.T) {
	c := launchOverMemnet(t, Shape{Documents: 60, Categories: 3, Nodes: 3, Clusters: 1, Seed: 5},
		nil, memnet.NewSized(4<<10), Options{CacheBytes: -1, WriterIdle: -1})
	cat := bigCategory(c.inst)
	placed := len(c.inst.Catalog.Cats[cat].Docs)
	for i, n := range c.Nodes {
		routeVia(t, n, cat, model.NodeID((i+1)%len(c.Nodes)))
	}
	const callers, each = 32, 200
	var wg sync.WaitGroup
	var failed atomic.Int64
	for _, n := range c.Nodes {
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(n *Node, g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					want := 1 + (g+i)%placed // some answered by the entry, some forwarded
					out, err := n.Query(cat, want, 10*time.Second)
					if err != nil || !out.Done {
						failed.Add(1)
					}
				}
			}(n, g)
		}
	}
	wg.Wait()
	var sends, through int64
	for _, n := range c.Nodes {
		st := n.Stats()
		total := st["queries_total"]
		outcomes := st["queries_ok"] + st["query_rejected"] + st["query_no_route"] +
			st["query_timeouts"] + st["query_cancelled"] + st["query_closed"]
		if total != callers*each || outcomes != total {
			t.Errorf("node %d: queries_total %d, outcomes %d; want %d each", n.id, total, outcomes, callers*each)
		}
		if st["transport_reconnects"] != 0 {
			t.Errorf("node %d: transport_reconnects = %d, want 0 (a stream timed out)", n.id, st["transport_reconnects"])
		}
		sends += st["transport_sends"]
		through += st["transport_write_through"]
	}
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d of %d queries did not complete", f, 3*callers*each)
	}
	if through == 0 {
		t.Fatal("no frame written through: the cycle did not exercise the fast path")
	}
	t.Logf("%d of %d sends written through", through, sends)
}
