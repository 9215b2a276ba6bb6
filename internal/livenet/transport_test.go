package livenet

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// locked runs f on n under routeMu.Lock, the way control frames, API
// calls and ticks run.
func locked(n *Node, f func(*Node)) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	f(n)
}

// withTable runs f on n under the query table's lock, the way callers,
// result readers and the sweep run.
func withTable(n *Node, f func(*Node)) {
	n.queries.mu.Lock()
	defer n.queries.mu.Unlock()
	f(n)
}

// TestTransportReusesConnections is the acceptance check: under a
// multi-query workload, messages reuse persistent streams — dials per
// sent message come out well below one.
func TestTransportReusesConnections(t *testing.T) {
	// No requester cache, so every query exercises the transport; with
	// caching on, repeat queries are answered locally and the handful of
	// networked ones make stream reuse a coin flip of random target picks.
	c, inst := launchWith(t, 11, Options{CacheBytes: -1})
	cat := bigCategory(inst)
	const queries = 60
	start := time.Now()
	for i := 0; i < queries; i++ {
		origin := c.Nodes[i%6]
		if _, err := origin.Query(cat, 3, 5*time.Second); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)

	s := c.Stats()
	dials, sends, reuses := s["transport_dials"], s["transport_sends"], s["transport_reuses"]
	t.Logf("%d queries in %v (%.2f ms/query)", queries, elapsed,
		float64(elapsed.Milliseconds())/queries)
	t.Logf("transport: dials=%d sends=%d reuses=%d reconnects=%d send_failures=%d queue_depth=%d",
		dials, sends, reuses, s["transport_reconnects"], s["transport_send_failures"], s["queue_depth"])

	if sends == 0 {
		t.Fatal("no messages sent")
	}
	if reuses == 0 {
		t.Error("no connection reuse observed")
	}
	if dials >= sends {
		t.Errorf("dials (%d) not amortized over sends (%d): want dials per message < 1", dials, sends)
	}
}

// TestCloseDuringInflightQuery shuts the cluster down while a query that
// can never complete is waiting, and requires the blocked caller to
// return promptly (no goroutine stuck on a dead node; -race in CI guards
// the teardown ordering).
func TestCloseDuringInflightQuery(t *testing.T) {
	c, inst := launchSmall(t, 12)
	cat := bigCategory(inst)
	want := unsatisfiable(t, c.Nodes[0], cat)
	type res struct {
		err error
	}
	got := make(chan res, 1)
	go func() {
		_, err := c.Nodes[0].Query(cat, want, 30*time.Second)
		got <- res{err}
	}()
	time.Sleep(150 * time.Millisecond) // let the query reach the cluster
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case r := <-got:
		if r.err == nil {
			t.Error("query against impossible demand succeeded during close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Query did not return after Close")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not finish")
	}
}

// TestPartialOutcomesUnderDialFailures injects a flaky dialer into every
// node and checks the system degrades gracefully: no panic, failures are
// counted, retried sends still let queries produce (at least partial)
// outcomes.
func TestPartialOutcomesUnderDialFailures(t *testing.T) {
	c, inst := launchSmall(t, 13)
	for _, n := range c.Nodes {
		var mu sync.Mutex
		calls := 0
		n.tr.setDial(func(addr string) (net.Conn, error) {
			mu.Lock()
			calls++
			fail := calls%3 == 0
			mu.Unlock()
			if fail {
				return nil, errors.New("injected dial failure")
			}
			return net.DialTimeout("tcp", addr, dialTimeout)
		})
	}
	cat := bigCategory(inst)
	docs := 0
	for i := 0; i < 8; i++ {
		out, err := c.Nodes[i%len(c.Nodes)].Query(cat, 2, 3*time.Second)
		if err != nil && err != ErrTimeout {
			t.Fatalf("query %d: unexpected error %v", i, err)
		}
		docs += len(out.Docs)
	}
	if docs == 0 {
		t.Error("no documents at all under 1/3 dial failures")
	}
	s := c.Stats()
	if s["transport_dial_failures"] == 0 {
		t.Error("injected dial failures not counted")
	}
	t.Logf("under injected failures: dial_failures=%d retries=%d send_failures=%d docs=%d",
		s["transport_dial_failures"], s["transport_retries"], s["transport_send_failures"], docs)
}

// TestTransportReconnectAfterPeerRestart drives the transport directly:
// messages flow to a listener, the listener dies and is restarted on the
// same address, and the writer's backoff/reconnect loop resumes delivery
// on the same peerConn.
func TestTransportReconnectAfterPeerRestart(t *testing.T) {
	received := make(chan uint64, 256)
	onEnv := func(env envelope) {
		if q, ok := env.Msg.(protocol.QueryMsg); ok {
			received <- q.ID
		}
	}
	peer := startSink(t, "127.0.0.1:0", nil, onEnv)
	addr := peer.addr()

	stats := new(counters)
	tr := newTransport(1, 99, stats)
	defer tr.close()

	tr.send(2, addr, envelope{From: 1, Msg: protocol.QueryMsg{ID: 1}}, laneQueue)
	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("first message never arrived")
	}

	// Kill the peer (listener AND its accepted connections), then bring
	// it back on the same address.
	peer.close()
	time.Sleep(50 * time.Millisecond)
	startSink(t, addr, nil, onEnv)

	// The first write after the peer died may vanish into the old socket
	// buffer (best-effort transport); keep sending fresh ids until one
	// lands through a reconnected stream.
	deadline := time.Now().Add(10 * time.Second)
	next := uint64(100)
	for {
		tr.send(2, addr, envelope{From: 1, Msg: protocol.QueryMsg{ID: next}}, laneQueue)
		select {
		case id := <-received:
			if id >= 100 {
				if stats.TransportReconnects.Load() == 0 && stats.TransportDials.Load() < 2 {
					t.Errorf("delivery resumed without a reconnect or redial: %v", stats.snapshot())
				}
				return
			}
		case <-time.After(200 * time.Millisecond):
		}
		next++
		if time.Now().After(deadline) {
			t.Fatalf("no delivery after peer restart: %v", stats.snapshot())
		}
	}
}

// TestTransportEvictsDeadPeer checks that repeated dial failures trigger
// the onPeerDown callback and that the node removes the peer from every
// NRT entry.
func TestTransportEvictsDeadPeer(t *testing.T) {
	stats := new(counters)
	tr := newTransport(1, 7, stats)
	defer tr.close()
	tr.setDial(func(addr string) (net.Conn, error) {
		return nil, errors.New("always down")
	})
	downs := make(chan model.NodeID, 4)
	tr.onPeerDown = func(id model.NodeID) { downs <- id }

	// Each batch burns up to maxSendAttempts dial attempts; steady
	// traffic pushes the consecutive-failure count past evictAfterFails.
	// (Queued messages coalesce into one batch, so a single burst is not
	// enough — which is correct: eviction is for peers that stay down
	// while traffic keeps flowing.)
	deadline := time.After(15 * time.Second)
	for i := uint64(0); ; i++ {
		tr.send(9, "127.0.0.1:1", envelope{From: 1, Msg: protocol.QueryMsg{ID: i}}, laneQueue)
		select {
		case id := <-downs:
			if id != 9 {
				t.Errorf("evicted peer %d, want 9", id)
			}
		case <-time.After(100 * time.Millisecond):
			continue
		case <-deadline:
			t.Fatalf("onPeerDown never fired: %v", stats.snapshot())
		}
		break
	}
	if stats.TransportPeerEvictions.Load() == 0 {
		t.Error("eviction not counted")
	}
}

func TestEvictPeerRemovesNRTEntries(t *testing.T) {
	c, _ := launchSmall(t, 14)
	n := c.Nodes[0]
	var victim model.NodeID
	locked(n, func(n *Node) {
		for _, members := range n.nrt {
			if len(members) > 0 {
				victim = members[0]
				return
			}
		}
	})
	locked(n, func(n *Node) { n.evictPeer(victim) })
	locked(n, func(n *Node) {
		for cl, members := range n.nrt {
			for _, m := range members {
				if m == victim {
					t.Errorf("peer %d still in NRT cluster %d after eviction", victim, cl)
				}
			}
		}
	})
}

// TestPendingExpirySweep checks an orphaned pending query is reaped once
// its deadline passes, delivering the partial outcome.
func TestPendingExpirySweep(t *testing.T) {
	c, _ := launchSmall(t, 16)
	n := c.Nodes[0]
	ch := make(chan QueryOutcome, 1)
	withTable(n, func(n *Node) {
		n.inflight.Add(1)
		n.queries.pending[42] = &pendingQuery{
			id:       42,
			want:     5,
			docs:     map[catalog.DocID]bool{7: true},
			hops:     3,
			ch:       ch,
			deadline: time.Now().Add(-time.Second),
		}
		n.sweep(time.Now())
		if _, still := n.queries.pending[42]; still {
			t.Error("expired pending query not removed")
		}
	})
	select {
	case out := <-ch:
		if out.Done || len(out.Docs) != 1 || out.Hops != 3 {
			t.Errorf("partial outcome = %+v", out)
		}
	default:
		t.Error("expired pending query delivered nothing")
	}
	if n.stats.PendingExpired.Load() == 0 {
		t.Error("expiry not counted")
	}
}

// TestQueryNoRouteExplicit checks the API paths fail fast with ErrNoRoute
// instead of silently misrouting to cluster 0, and the handler path drops
// with a counter.
func TestQueryNoRouteExplicit(t *testing.T) {
	c, inst := launchSmall(t, 17)
	n := c.Nodes[0]
	cat := bigCategory(inst)
	locked(n, func(n *Node) { delete(n.dcrt, cat) })

	if _, err := n.Query(cat, 1, time.Second); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Query without DCRT entry: err = %v, want ErrNoRoute", err)
	}
	if n.stats.QueryNoRoute.Load() == 0 {
		t.Error("query_no_route not counted")
	}

	// Handler path: an inbound query for the unroutable category is
	// dropped and counted, not forwarded to cluster 0.
	n.handleQuery(protocol.QueryMsg{ID: 1 << 40, Category: cat, Want: 1, Origin: 5, Hops: 1})
	if n.stats.DropNoRoute.Load() == 0 {
		t.Error("drop_no_route not counted on handler path")
	}

	// Publish path: a document whose category has no route errors out.
	var doc catalog.DocID
	found := false
	locked(n, func(n *Node) {
		if docs := n.byCat[cat]; len(docs) > 0 {
			doc, found = docs[0], true
		}
	})
	if found {
		if err := n.Publish(doc); !errors.Is(err, ErrNoRoute) {
			t.Errorf("Publish without DCRT entry: err = %v, want ErrNoRoute", err)
		}
	}
}

// TestHandleResultMaxHops checks the outcome reports the farthest
// contributing result, not the hop count of whichever message completed
// the set.
func TestHandleResultMaxHops(t *testing.T) {
	c, _ := launchSmall(t, 18)
	n := c.Nodes[0]
	ch := make(chan QueryOutcome, 1)
	withTable(n, func(n *Node) {
		n.inflight.Add(1)
		n.queries.pending[77] = &pendingQuery{
			id:       77,
			want:     2,
			need:     2,
			docs:     make(map[catalog.DocID]bool),
			ch:       ch,
			deadline: time.Now().Add(time.Minute),
		}
	})
	n.handleResult(protocol.ResultMsg{ID: 77, Docs: []catalog.DocID{1}, Hops: 5, From: 2})
	n.handleResult(protocol.ResultMsg{ID: 77, Docs: []catalog.DocID{2}, Hops: 2, From: 3})
	select {
	case out := <-ch:
		if !out.Done {
			t.Fatal("query did not complete")
		}
		if out.Hops != 5 {
			t.Errorf("Hops = %d, want max over contributing results (5)", out.Hops)
		}
	case <-time.After(time.Second):
		t.Fatal("no outcome delivered")
	}
}

// BenchmarkLiveQuery times end-to-end queries over the persistent
// transport (the pre-transport implementation paid a TCP handshake per
// message).
func BenchmarkLiveQuery(b *testing.B) {
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = 400
	cfg.Catalog.NumCats = 12
	cfg.NumNodes = 24
	cfg.NumClusters = 4
	cfg.Seed = 21
	inst, err := model.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Launch(inst, assignAll(inst), nil, Options{Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cat := bigCategory(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Nodes[i%len(c.Nodes)].Query(cat, 2, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := c.Stats()
	b.ReportMetric(float64(s["transport_dials"])/float64(s["transport_sends"]+1), "dials/msg")
}

// assignAll assigns categories round-robin for the benchmark (MaxFair is
// irrelevant to transport timing).
func assignAll(inst *model.Instance) []model.ClusterID {
	assign := make([]model.ClusterID, len(inst.Catalog.Cats))
	for i := range assign {
		assign[i] = model.ClusterID(i % inst.NumClusters)
	}
	return assign
}
