package livenet

import (
	"bufio"
	"encoding/gob"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/cache"
	"p2pshare/internal/catalog"
	"p2pshare/internal/metrics"
	"p2pshare/internal/overlay"
	"p2pshare/internal/wire"
)

// TestWireCodecEndToEnd checks that two v2 nodes talk the binary codec:
// traffic flows, bytes are counted on both ends, and the gob fallback is
// never taken.
func TestWireCodecEndToEnd(t *testing.T) {
	c, inst := launchSmall(t, 31)
	cat := bigCategory(inst)
	for i := 0; i < 10; i++ {
		if _, err := c.Nodes[i%len(c.Nodes)].Query(cat, 3, 5*time.Second); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	s := c.Stats()
	if s["codec_fallback"] != 0 {
		t.Errorf("v2-only cluster took the gob fallback %d times", s["codec_fallback"])
	}
	if s["wire_bytes_out"] == 0 || s["wire_bytes_in"] == 0 {
		t.Errorf("wire byte counters not moving: out=%d in=%d", s["wire_bytes_out"], s["wire_bytes_in"])
	}
	t.Logf("wire_bytes_out=%d wire_bytes_in=%d sends=%d", s["wire_bytes_out"], s["wire_bytes_in"], s["transport_sends"])
}

// TestMixedVersionInterop downgrades one serving-cluster member to a
// legacy gob-only node (it never acks the v2 preamble and sends without
// one) and checks that query and publish traffic still completes across
// the version boundary, with the fallback counted.
func TestMixedVersionInterop(t *testing.T) {
	c, inst := launchSmall(t, 32)
	cat := bigCategory(inst)

	// Find a member of the category's serving cluster — guaranteed to
	// receive query floods from v2 peers.
	var legacy *Node
	runCmd(t, c.Nodes[0], func(n *Node) {
		cl := n.dcrt[cat].Cluster
		if members := n.nrt[cl]; len(members) > 0 {
			legacy = c.Nodes[members[0]]
		}
	})
	if legacy == nil {
		t.Fatal("no serving-cluster member found")
	}
	legacy.legacyGob.Store(true)
	legacy.tr.forceGob.Store(true)

	// Disable the requester cache so queries keep hitting the network;
	// entry targets are picked at random, so run until one of them lands
	// on the legacy node (12 queries minimum keeps the traffic volume of
	// the original scenario).
	for _, n := range c.Nodes {
		if err := n.SetCacheCapacity(cache.LRU, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		origin := c.Nodes[i%len(c.Nodes)]
		out, err := origin.Query(cat, 3, 5*time.Second)
		if err != nil {
			t.Fatalf("query %d from node %d: %v", i, origin.ID(), err)
		}
		if !out.Done {
			t.Fatalf("query %d incomplete: %+v", i, out)
		}
		if i >= 11 && legacy.Served() > 0 {
			break
		}
	}
	// The legacy node itself queries (outbound gob) and publishes.
	if _, err := legacy.Query(cat, 2, 5*time.Second); err != nil {
		t.Fatalf("legacy node query: %v", err)
	}
	var doc catalog.DocID = -1
	for _, cd := range inst.Catalog.Cats[cat].Docs {
		doc = cd
		break
	}
	if doc >= 0 {
		if err := legacy.Publish(doc); err != nil {
			t.Fatalf("legacy node publish: %v", err)
		}
	}

	s := c.Stats()
	if s["codec_fallback"] == 0 {
		t.Errorf("no codec fallback counted with a legacy peer in the serving cluster: %v", s)
	}
	if legacy.Served() == 0 {
		t.Error("legacy node served no queries — fallback traffic never reached it")
	}
	t.Logf("mixed-version: codec_fallback=%d legacy_served=%d sends=%d",
		s["codec_fallback"], legacy.Served(), s["transport_sends"])
}

// TestTransportBatchingCoalesces backs the queue up behind a slow dial
// and checks that the writer drains it in multi-envelope batches.
func TestTransportBatchingCoalesces(t *testing.T) {
	received := make(chan struct{}, 1024)
	ln := startSink(t, received, nil)

	stats := metrics.NewSyncCounter()
	tr := newTransport(1, 5, stats)
	defer tr.close()
	// Delay only the first dial so the whole burst is queued before the
	// stream opens.
	var dials atomic.Int64
	tr.setDial(func(addr string) (net.Conn, error) {
		if dials.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond)
		}
		return net.DialTimeout("tcp", addr, dialTimeout)
	})

	const burst = 50
	for i := 0; i < burst; i++ {
		tr.enqueue(2, ln.Addr().String(), envelope{From: 1, Msg: overlay.QueryMsg{ID: uint64(i)}})
	}
	for i := 0; i < burst; i++ {
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d envelopes arrived: %v", i, burst, stats.Snapshot())
		}
	}
	// The writer records a batch after its flush returns, which can be
	// after the sink has already read it: wait for the books to close.
	for end := time.Now().Add(2 * time.Second); tr.batches.Sum() < burst && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if max := tr.batches.Max(); max < 2 {
		t.Errorf("largest batch = %.0f envelopes, want coalescing (>1); batches: %s", max, tr.batches.Summary())
	}
	t.Logf("batch sizes over %d envelopes: %s", burst, tr.batches.Summary())
}

// TestNegotiateTimeoutNotSticky stalls the FIRST handshake past the ack
// deadline — a v2 peer hiccuping between accept and ack — then serves
// the resulting gob-fallback stream and kills it. The sender must
// re-probe v2 on the reconnect: a lone transient timeout may downgrade
// one stream, but never pin the peer to gob for the process lifetime.
func TestNegotiateTimeoutNotSticky(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	codec := make(chan string, 256)
	var wg sync.WaitGroup
	go func() {
		for connNo := 1; ; connNo++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn, connNo int) {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReaderSize(conn, readBufBytes)
				head, err := br.Peek(wire.PreambleLen)
				if connNo == 1 {
					// Swallow the preamble, never ack, and hold the
					// stream open until the sender gives up — the
					// blocking (not closing) non-acker.
					io.Copy(io.Discard, br)
					return
				}
				if err == nil && wire.IsPreamble(head) {
					br.Discard(wire.PreambleLen)
					if _, err := conn.Write([]byte{wire.Version}); err != nil {
						return
					}
					r := wire.NewReader(br)
					for {
						if _, err := r.Next(); err != nil {
							return
						}
						codec <- "wire"
					}
				}
				// Gob fallback stream: take one envelope, then let the
				// deferred close kill it so the sender reconnects.
				var env envelope
				if err := gob.NewDecoder(br).Decode(&env); err != nil {
					return
				}
				codec <- "gob"
			}(conn, connNo)
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })

	stats := metrics.NewSyncCounter()
	tr := newTransport(1, 11, stats)
	defer tr.close()

	env := envelope{From: 1, Msg: overlay.QueryMsg{ID: 1}}
	tr.enqueue(2, ln.Addr().String(), env)
	select {
	case c := <-codec:
		if c != "gob" {
			t.Fatalf("first envelope arrived via %q, want the per-stream gob fallback", c)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("first envelope never arrived: %v", stats.Snapshot())
	}

	// The fallback stream is dead; keep sending until traffic flows
	// again. The reconnect must have re-probed (and won) v2.
	deadline := time.Now().Add(10 * time.Second)
	gotWire := false
	for !gotWire && time.Now().Before(deadline) {
		tr.enqueue(2, ln.Addr().String(), env)
		select {
		case c := <-codec:
			gotWire = c == "wire"
		case <-time.After(200 * time.Millisecond):
		}
	}
	if !gotWire {
		t.Fatalf("traffic never returned to the v2 codec after a transient stall: %v", stats.Snapshot())
	}
	if p := tr.peer(2, ln.Addr().String()); p.gobOnly.Load() {
		t.Error("one ack timeout marked the peer gob-only (sticky downgrade)")
	}
	s := stats.Snapshot()
	if s["transport_negotiate_timeouts"] == 0 {
		t.Errorf("negotiate timeout not counted: %v", s)
	}
	if s["codec_fallback"] == 0 {
		t.Errorf("per-stream fallback not counted: %v", s)
	}
}

// startSink runs a v2-capable receiver: it acks the wire preamble and
// decodes frames, or falls through to gob for legacy senders. Every
// decoded envelope signals received; inbound bytes accumulate in nbytes
// when non-nil.
func startSink(t testing.TB, received chan struct{}, nbytes *atomic.Int64) net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				var r io.Reader = conn
				if nbytes != nil {
					r = &tallyReader{r: conn, n: nbytes}
				}
				br := bufio.NewReaderSize(r, readBufBytes)
				head, err := br.Peek(wire.PreambleLen)
				if err == nil && wire.IsPreamble(head) {
					br.Discard(wire.PreambleLen)
					if _, err := conn.Write([]byte{wire.Version}); err != nil {
						return
					}
					wr := wire.NewReader(br)
					for {
						if _, err := wr.Next(); err != nil {
							return
						}
						received <- struct{}{}
					}
				}
				dec := gob.NewDecoder(br)
				for {
					var env envelope
					if err := dec.Decode(&env); err != nil {
						return
					}
					received <- struct{}{}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln
}

type tallyReader struct {
	r io.Reader
	n *atomic.Int64
}

func (tr *tallyReader) Read(p []byte) (int, error) {
	n, err := tr.r.Read(p)
	tr.n.Add(int64(n))
	return n, err
}

// BenchmarkTransportThroughput measures sustained one-way envelope
// throughput (msgs/sec, MB/s) through the full transport stack against a
// live TCP sink, under three configurations:
//
//   - gob-per-msg: gob codec, one flush per envelope — the transport's
//     behavior before the v2 wire work (the seed baseline).
//   - gob-batched: gob codec with write coalescing.
//   - wire-batched: the v2 default (binary codec + coalescing).
func BenchmarkTransportThroughput(b *testing.B) {
	env := envelope{From: 1, Msg: overlay.ResultMsg{
		ID: 7, Docs: []catalog.DocID{3, 17, 256, 4095, 70000, 9, 12, 31}, Hops: 3, From: 2,
	}}
	run := func(b *testing.B, forceGob, flushEach bool) {
		received := make(chan struct{}, 4096)
		var nbytes atomic.Int64
		ln := startSink(b, received, &nbytes)

		stats := metrics.NewSyncCounter()
		tr := newTransport(1, 42, stats)
		defer tr.close()
		tr.forceGob.Store(forceGob)
		tr.flushEach.Store(flushEach)

		// Credit-based flow control keeps the producer inside the bounded
		// send queue (overflow would silently drop): each enqueue spends a
		// credit, each envelope decoded by the sink returns one.
		var got atomic.Int64
		credits := make(chan struct{}, sendQueueCap-64)
		for i := 0; i < cap(credits); i++ {
			credits <- struct{}{}
		}
		drained := make(chan struct{})
		go func() {
			for range received {
				if got.Add(1) == int64(b.N) {
					close(drained)
					return
				}
				credits <- struct{}{}
			}
		}()

		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			<-credits
			tr.enqueue(2, ln.Addr().String(), env)
		}
		select {
		case <-drained:
		case <-time.After(30 * time.Second):
			b.Fatalf("sink received %d of %d envelopes: %v", got.Load(), b.N, stats.Snapshot())
		}
		elapsed := time.Since(start)
		b.StopTimer()
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msgs/sec")
		b.ReportMetric(float64(nbytes.Load())/(1<<20)/elapsed.Seconds(), "MB/s")
		if mean := tr.batches.Mean(); mean > 0 {
			b.ReportMetric(mean, "msgs/batch")
		}
	}
	for _, cfg := range []struct {
		name                string
		forceGob, flushEach bool
	}{
		{"gob-per-msg", true, true},
		{"gob-batched", true, false},
		{"wire-batched", false, false},
	} {
		b.Run(cfg.name, func(b *testing.B) { run(b, cfg.forceGob, cfg.flushEach) })
	}
}
