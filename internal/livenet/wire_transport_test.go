package livenet

import (
	"bufio"
	"encoding/hex"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// TestWireCodecEndToEnd checks a cluster's streams open cleanly: traffic
// flows, bytes are counted on both ends, and no handshake fails or is
// rejected.
func TestWireCodecEndToEnd(t *testing.T) {
	c, inst := launchSmall(t, 31)
	cat := bigCategory(inst)
	for i := 0; i < 10; i++ {
		if _, err := c.Nodes[i%len(c.Nodes)].Query(cat, 3, 5*time.Second); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	s := c.Stats()
	if s["transport_handshake_failures"] != 0 || s["wire_handshake_rejects"] != 0 {
		t.Errorf("healthy cluster failed handshakes: %d failures, %d rejects",
			s["transport_handshake_failures"], s["wire_handshake_rejects"])
	}
	if s["wire_bytes_out"] == 0 || s["wire_bytes_in"] == 0 {
		t.Errorf("wire byte counters not moving: out=%d in=%d", s["wire_bytes_out"], s["wire_bytes_in"])
	}
	t.Logf("wire_bytes_out=%d wire_bytes_in=%d sends=%d", s["wire_bytes_out"], s["wire_bytes_in"], s["transport_sends"])
}

// TestTransportBatchingCoalesces backs the queue up behind a slow dial
// and checks that the writer drains it in multi-envelope batches.
func TestTransportBatchingCoalesces(t *testing.T) {
	received := make(chan struct{}, 1024)
	s := startSink(t, "127.0.0.1:0", nil, func(envelope) { received <- struct{}{} })

	stats := new(counters)
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
		tr.send(2, s.addr(), envelope{From: 1, Msg: protocol.QueryMsg{ID: uint64(i)}}, laneQueue)
	}
	for i := 0; i < burst; i++ {
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d envelopes arrived: %v", i, burst, stats.snapshot())
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

// sink is a test receiver on a loopback listener: every connection goes
// through wire.AcceptStream and every decoded envelope is handed to
// onEnv. Closing it kills the listener and every accepted connection —
// a peer dying.
type sink struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

// startSink listens on addr ("127.0.0.1:0", or a dead sink's address to
// play its restart). takeOver, when non-nil, sees each accepted
// connection (numbered from 1) before the handshake; returning true
// means it dealt with the connection itself — stalled it, or nothing at
// all — and the sink closes it.
func startSink(t testing.TB, addr string, takeOver func(connNo int, conn net.Conn) bool, onEnv func(envelope)) *sink {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen on %s: %v", addr, err)
	}
	return serveSink(t, ln, takeOver, onEnv)
}

// serveSink is startSink on a listener the caller opened (a memnet one,
// say).
func serveSink(t testing.TB, ln net.Listener, takeOver func(connNo int, conn net.Conn) bool, onEnv func(envelope)) *sink {
	s := &sink{ln: ln}
	serve := func(connNo int, conn net.Conn) {
		defer s.wg.Done()
		defer conn.Close()
		if takeOver != nil && takeOver(connNo, conn) {
			return
		}
		r, err := wire.AcceptStream(bufio.NewReaderSize(conn, readBufBytes), conn, wire.Unbounded)
		for err == nil {
			var env envelope
			if env, err = r.Next(); err == nil {
				onEnv(env)
			}
		}
	}
	go func() {
		for connNo := 1; ; connNo++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go serve(connNo, conn)
		}
	}()
	t.Cleanup(s.close)
	return s
}

func (s *sink) addr() string { return s.ln.Addr().String() }

func (s *sink) close() {
	s.ln.Close()
	s.mu.Lock()
	for _, conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// gobHelloFrame is what a pre-wire joiner's announce() wrote: the
// encoding/gob bytes of envelope{From: 7, Msg: helloMsg{ID: 7, Addr:
// "127.0.0.1:6117"}}, captured when the transport still had a gob path.
// Nothing decodes it any more; it is kept as hostile input.
const gobHelloFrame = "267f03010108656e76656c6f706501ff80000102010446726f6d01040001034d736701100000004eff80010e012270327073686172652f696e7465726e616c2f6c6976656e65742e68656c6c6f4d7367ff810301010868656c6c6f4d736701ff8200010201024944010400010441646472010c00000017ff8213010e010e3132372e302e302e313a363131370000"

// TestForeignStreamRejected writes that frame to a live node: the node
// must close the connection, count one reject, and admit nobody.
func TestForeignStreamRejected(t *testing.T) {
	n, err := StartNode(testShape(), 0, "127.0.0.1:0", "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	frame, err := hex.DecodeString(gobHelloFrame)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The node answers with nothing but the close (a reset when the rest
	// of the frame was still unread).
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if nr, err := conn.Read(make([]byte, 1)); nr != 0 || err == nil || os.IsTimeout(err) {
		t.Fatalf("read after a foreign stream = %d bytes, %v; want the connection closed", nr, err)
	}
	// The reject is counted before the close, so it is visible by now.
	if got := n.Stats()["wire_handshake_rejects"]; got != 1 {
		t.Errorf("wire_handshake_rejects = %d, want 1", got)
	}
	if got := n.KnownPeers(); got != 1 {
		t.Errorf("node knows %d peers after a foreign hello, want 1", got)
	}
}

// TestHandshakeStallIsAFailedConnect stalls the first handshake past
// the ack deadline. The sender must treat it as a failed connect —
// counted, nothing but the preamble ever written to that stream — and
// deliver on the retry.
func TestHandshakeStallIsAFailedConnect(t *testing.T) {
	stalledBytes := make(chan int64, 1)
	received := make(chan envelope, 16)
	s := startSink(t, "127.0.0.1:0", func(connNo int, conn net.Conn) bool {
		if connNo > 1 {
			return false
		}
		// Swallow whatever arrives, never ack, hold the stream open
		// until the sender gives up.
		nb, _ := io.Copy(io.Discard, conn)
		stalledBytes <- nb
		return true
	}, func(env envelope) { received <- env })

	stats := new(counters)
	tr := newTransport(1, 11, stats)
	defer tr.close()
	want := envelope{From: 1, Msg: protocol.QueryMsg{ID: 1}}
	tr.send(2, s.addr(), want, laneQueue)
	select {
	case got := <-received:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("delivered %+v, want %+v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("envelope never arrived after a stalled handshake: %v", stats.snapshot())
	}
	st := stats.snapshot()
	if st["transport_handshake_failures"] != 1 || st["transport_dials"] != 1 || st["transport_dial_failures"] != 0 {
		t.Errorf("want one handshake failure, then one opened stream: %v", st)
	}
	// The sender closed the stalled stream before retrying.
	select {
	case got := <-stalledBytes:
		if got != 5 {
			t.Errorf("stalled stream carried %d bytes, want the 5-byte preamble and nothing else", got)
		}
	case <-time.After(5 * time.Second):
		t.Error("stalled stream was never closed by the sender")
	}
	select {
	case env := <-received:
		t.Errorf("envelope delivered twice: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestHandshakeFailuresCounted: a peer that accepts connections but
// refuses every handshake costs handshake failures, retried like failed
// dials under the backoff, and never counts as a dial.
func TestHandshakeFailuresCounted(t *testing.T) {
	s := startSink(t, "127.0.0.1:0", func(int, net.Conn) bool { return true }, nil)
	stats := new(counters)
	tr := newTransport(1, 7, stats)
	defer tr.close()
	// Steady traffic: each batch burns maxSendAttempts connects.
	const failures = 5
	deadline := time.Now().Add(20 * time.Second)
	for i := uint64(0); stats.TransportHandshakeFailures.Load() < failures; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("handshake failures never reached %d: %v", failures, stats.snapshot())
		}
		tr.send(9, s.addr(), envelope{From: 1, Msg: protocol.QueryMsg{ID: i}}, laneQueue)
		time.Sleep(50 * time.Millisecond)
	}
	if st := stats.snapshot(); st["transport_dials"] != 0 || st["transport_dial_failures"] != 0 {
		t.Errorf("refused handshakes miscounted: %v", st)
	}
}

// BenchmarkTransportThroughput measures sustained one-way envelope
// throughput (msgs/sec, MB/s) through the full transport stack against a
// live TCP sink.
func BenchmarkTransportThroughput(b *testing.B) {
	env := envelope{From: 1, Msg: protocol.ResultMsg{
		ID: 7, Docs: []catalog.DocID{3, 17, 256, 4095, 70000, 9, 12, 31}, Hops: 3,
	}}
	received := make(chan struct{}, 4096)
	s := startSink(b, "127.0.0.1:0", nil, func(envelope) { received <- struct{}{} })

	stats := new(counters)
	tr := newTransport(1, 42, stats)
	defer tr.close()

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
		tr.send(2, s.addr(), env, laneQueue)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		b.Fatalf("sink received %d of %d envelopes: %v", got.Load(), b.N, stats.snapshot())
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msgs/sec")
	b.ReportMetric(float64(stats.WireBytesOut.Load())/(1<<20)/elapsed.Seconds(), "MB/s")
	if mean := tr.batches.Mean(); mean > 0 {
		b.ReportMetric(mean, "msgs/batch")
	}
}

// TestSilentStreamReapedWithinWindow pins the lazily armed read deadline
// on a live node over memnet, with the idle timeout shortened from two
// minutes: a stream that keeps talking outlives the timeout (the deadline
// does get re-armed), and once it goes silent the node closes it after
// no less than ¾ of the timeout and no more than all of it.
func TestSilentStreamReapedWithinWindow(t *testing.T) {
	const idle = 800 * time.Millisecond
	nw := memnet.New()
	c := launchOverMemnet(t, twoNodeShape(), nil, nw, Options{CacheBytes: -1})
	n := c.Nodes[1]
	n.readIdle = idle // before the dial below, which is what starts the reader

	conn, err := nw.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.OpenStream(conn, time.Second); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	var lastFrame time.Time
	for start := time.Now(); time.Since(start) < idle+idle/2; time.Sleep(5 * time.Millisecond) {
		// A result for a query nobody asked: decoded, routed, ignored.
		err := wire.WriteEnvelope(bw, envelope{From: 0, Msg: protocol.ResultMsg{ID: 1 << 20}})
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			t.Fatalf("busy stream was closed %v in, idle timeout %v: %v", time.Since(start), idle, err)
		}
		lastFrame = time.Now()
	}
	conn.SetReadDeadline(time.Now().Add(5 * idle))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the silent stream: %v, want EOF from the node closing it", err)
	}
	// Slack: the frame spacing below, a loaded box's scheduling above.
	silent := time.Since(lastFrame)
	if silent < idle*3/4-30*time.Millisecond || silent > idle+250*time.Millisecond {
		t.Fatalf("silent stream reaped after %v, want between %v and %v", silent, idle*3/4, idle)
	}
}

// TestBlockedWriteFailsWithinTimeout pins the write deadline on both
// write paths: the writer goroutine's batches, and a frame its sender
// writes through (testBlockedWriteThrough, writethrough_test.go).
func TestBlockedWriteFailsWithinTimeout(t *testing.T) {
	t.Run("writer", testBlockedWriter)
	t.Run("write-through", testBlockedWriteThrough)
}

// testBlockedWriter pins the lazily armed write deadline: a peer that
// stops reading while the stream's deadline is already part-used (armed
// less than a quarter of writeTimeout ago, so not re-armed) blocks the
// writer for at least ¾ of writeTimeout and at most all of it before the
// stream is dropped and redialed.
func testBlockedWriter(t *testing.T) {
	nw := memnet.NewSized(4 << 10) // a "socket buffer" one burst overfills
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
			// Ack the handshake, then never read again.
			go wire.AcceptStream(bufio.NewReader(conn), conn, wire.Unbounded)
		}
	}()
	stats := new(counters)
	tr := newTransport(1, 3, stats)
	tr.setDial(nw.Dial)
	defer tr.close()
	defer func() { // unblock the writer's retries before tr.close waits for it
		ln.Close()
		mu.Lock()
		for _, conn := range accepted {
			conn.Close()
		}
		mu.Unlock()
	}()

	addr := ln.Addr().String()
	for i := 0; i < 4; i++ { // small frames the ring absorbs; the first arms the deadline
		tr.send(2, addr, envelope{From: 1, Msg: protocol.QueryMsg{ID: uint64(i)}}, laneQueue)
		time.Sleep(writeTimeout / 20)
	}
	if got := stats.TransportSends.Load(); got != 4 {
		t.Fatalf("transport_sends = %d before the burst, want 4", got)
	}
	docs := make([]catalog.DocID, 2000)
	blocked := time.Now()
	for i := 0; i < 8; i++ {
		tr.send(2, addr, envelope{From: 1, Msg: protocol.ResultMsg{ID: uint64(i), Docs: docs}}, laneQueue)
	}
	for stats.TransportReconnects.Load() == 0 {
		if time.Since(blocked) > 3*writeTimeout {
			t.Fatalf("blocked write never failed: %v", stats.snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	took := time.Since(blocked)
	if took < writeTimeout*3/4-50*time.Millisecond || took > writeTimeout+250*time.Millisecond {
		t.Fatalf("blocked write failed after %v, want between %v and %v", took, writeTimeout*3/4, writeTimeout)
	}
	if took > writeTimeout-writeTimeout/8 {
		t.Errorf("blocked write failed after %v: the deadline was re-armed although only %v of its %v window had been used",
			took, writeTimeout/5, writeTimeout)
	}
}
