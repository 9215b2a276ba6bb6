package livenet

import (
	"bufio"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/wire"
)

// The live transport keeps ONE persistent framed stream per
// (sender, receiver) pair instead of dialing a fresh TCP connection for
// every message. Each destination peer gets a bounded outbound queue
// drained by a dedicated writer goroutine that dials lazily, reuses the
// established stream, and reconnects on failure with capped exponential
// backoff plus jitter.
//
// Two things make the wire path fast (the v2 work):
//
//   - Codec. At stream open the writer negotiates the internal/wire v2
//     binary codec (compact varint frames, no reflection, pooled encode
//     buffers). A peer that CLOSES the stream on the preamble is a
//     legacy gob node: the writer falls back to gob for that peer
//     (counted as codec_fallback, sticky), so mixed-version deployments
//     keep working. An ack TIMEOUT is ambiguous (genuine legacy decoders
//     block rather than close; v2 peers can stall transiently), so it
//     downgrades only the one stream and goes sticky only after a
//     streak — see connect().
//   - Write coalescing. The writer drains its queue in batches of up to
//     maxBatchMsgs envelopes through one bufio.Writer and flushes when
//     the queue is empty or the batch is full — many envelopes per
//     syscall under load, zero added latency when traffic is sparse
//     (an envelope arriving alone flushes immediately). Batch sizes are
//     observed in a histogram; bytes that reach the socket are counted
//     as wire_bytes_out.
//
// Messages carry a small retry budget; a batch that exhausts it is
// dropped (the protocols are best-effort, exactly as in the simulator)
// and counted. After enough consecutive dial failures the transport
// reports the peer as down so the node can evict it from its NRT —
// graceful degradation instead of silently routing into a black hole.
const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds one batch write+flush on an established stream.
	writeTimeout = 2 * time.Second
	// negotiateTimeout bounds the codec handshake at stream open (the
	// preamble write plus the one-byte ack read). A legacy gob receiver
	// never acks: it either closes the stream outright (an immediate
	// EOF) or — the real pre-v2 decoder — blocks mid-message, in which
	// case this deadline is what surfaces the fallback.
	negotiateTimeout = 1 * time.Second
	// legacyNegotiateStreak is how many CONSECUTIVE ack timeouts prove a
	// peer legacy (sticky gob). Below the streak each timeout downgrades
	// only the one stream, so a transient stall — a v2 peer restarting
	// between accept and ack — cannot permanently pin a v2-capable peer
	// to the slower codec.
	legacyNegotiateStreak = 3
	// maxSendAttempts is the per-batch retry budget (dial failures and
	// broken-stream rewrites both consume attempts).
	maxSendAttempts = 3
	// backoffBase/backoffCap shape the reconnect backoff: base<<fails,
	// capped, plus up to 50% jitter.
	backoffBase = 25 * time.Millisecond
	backoffCap  = 1 * time.Second
	// evictAfterFails is how many consecutive dial failures mark a peer
	// down (the writer keeps retrying afterwards — a restarted peer is
	// picked up again — but the node stops routing queries through it).
	evictAfterFails = 5
	// sendQueueCap bounds each peer's outbound queue; enqueue never
	// blocks the event loop — overflow is dropped and counted.
	sendQueueCap = 256
	// defaultWriterIdle is how long a peer's writer goroutine sits with an
	// empty queue before parking: it closes its stream, exits, and is
	// respawned lazily by the next enqueue. Writer goroutines therefore
	// scale with ACTIVE links, not address-book size — the property that
	// lets a 10k-node in-process cluster idle at a handful of goroutines
	// per node. Options.WriterIdle overrides it (negative disables
	// parking).
	defaultWriterIdle = 45 * time.Second
	// maxBatchMsgs caps how many queued envelopes one flush coalesces.
	maxBatchMsgs = 64
	// bulkQueueCap bounds each peer's bulk (chunk) queue. Separate from
	// sendQueueCap so a transfer's worth of queued chunks can never
	// crowd protocol frames out of their queue. It holds descriptors, not
	// payloads (the writer materializes them), so it pins no chunk memory.
	bulkQueueCap = 256
	// maxBulkPerBatch caps bulk envelopes per flush. Chunks run ~64 KB,
	// so this bounds one batch's bulk payload (~512 KB) and therefore
	// how long a protocol frame arriving just after a flush started can
	// wait behind bulk bytes already committed to the socket.
	maxBulkPerBatch = 8
	// writeBufBytes sizes each peer stream's write buffer; a batch that
	// outgrows it flushes early inside bufio.
	writeBufBytes = 64 << 10
)

// transport is one node's connection pool. All methods are safe for
// concurrent use; in practice enqueue is called from the owning node's
// event loop and the writers run concurrently.
type transport struct {
	from    model.NodeID
	seed    int64
	stats   *metrics.SyncCounter
	batches *metrics.SyncHistogram // envelopes coalesced per flush

	mu     sync.Mutex
	peers  map[model.NodeID]*peerConn
	closed bool

	done chan struct{}
	wg   sync.WaitGroup

	// writerIdle is the parking timeout (see defaultWriterIdle); negative
	// disables parking. Set before the node's loops start, read-only after.
	writerIdle time.Duration
	// writersActive gauges how many writer goroutines exist right now
	// (spawned minus parked/exited) — exported as transport_writers_active.
	writersActive atomic.Int64

	// forceGob skips v2 negotiation on every stream (legacy-node
	// simulation in tests, codec baseline in benchmarks).
	forceGob atomic.Bool
	// flushEach flushes after every envelope, reproducing the
	// syscall-per-message behavior of the pre-batching transport
	// (benchmark baseline only).
	flushEach atomic.Bool

	// dial is swappable so tests can inject dial failures.
	dialMu sync.Mutex
	dial   func(addr string) (net.Conn, error)

	// onPeerDown fires (outside the transport locks) after
	// evictAfterFails consecutive dial failures to one peer.
	onPeerDown func(model.NodeID)
}

// peerConn is the queue and address of one destination peer. The
// connection itself lives in the writer goroutine's locals.
//
// Two outbound queues implement the data/control priority split: queue
// carries protocol frames (queries, probes, adaptation — everything
// latency-sensitive), bulk carries chunk transfers. The writer drains
// protocol strictly first and admits at most maxBulkPerBatch bulk
// envelopes per flush, so a saturating transfer cannot starve the
// protocol path — it only uses the bandwidth protocol traffic leaves
// idle.
type peerConn struct {
	to    model.NodeID
	queue chan envelope
	bulk  chan envelope

	// running reports whether a writer goroutine currently owns the
	// queue. Guarded by transport.mu — and so is every send into queue —
	// which is what makes the park/enqueue handoff airtight: a parking
	// writer re-checks len(queue) under the same lock the producers push
	// under, so a message either finds a live writer or spawns one.
	running bool

	// gobOnly is set when negotiation proves the peer is a legacy gob
	// node — it closed the stream on the preamble, or timed out the ack
	// legacyNegotiateStreak times in a row; every future stream to it
	// skips the preamble. A lone transient timeout never sets it, so one
	// slow handshake cannot permanently downgrade a v2-capable peer.
	gobOnly atomic.Bool

	mu   sync.Mutex
	addr string
}

func (p *peerConn) setAddr(addr string) {
	p.mu.Lock()
	p.addr = addr
	p.mu.Unlock()
}

func (p *peerConn) currentAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

func newTransport(from model.NodeID, seed int64, stats *metrics.SyncCounter) *transport {
	return &transport{
		from:       from,
		seed:       seed,
		stats:      stats,
		batches:    &metrics.SyncHistogram{},
		peers:      make(map[model.NodeID]*peerConn),
		done:       make(chan struct{}),
		writerIdle: defaultWriterIdle,
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		},
	}
}

// setDial swaps the dial function (test fault injection).
func (t *transport) setDial(f func(addr string) (net.Conn, error)) {
	t.dialMu.Lock()
	t.dial = f
	t.dialMu.Unlock()
}

func (t *transport) dialPeer(addr string) (net.Conn, error) {
	t.dialMu.Lock()
	f := t.dial
	t.dialMu.Unlock()
	return f(addr)
}

// enqueue hands a protocol envelope to the peer's writer, spawning one
// if the peer's writer is parked (or never started). It never blocks: a
// full queue drops the message (counted) rather than stalling the event
// loop.
func (t *transport) enqueue(to model.NodeID, addr string, env envelope) {
	t.enqueueOn(to, addr, env, false)
}

// enqueueBulk queues a chunk-transfer envelope at bulk priority: it
// rides the same stream but the writer only lets it into a batch when
// no protocol frame is waiting.
func (t *transport) enqueueBulk(to model.NodeID, addr string, env envelope) {
	t.enqueueOn(to, addr, env, true)
}

func (t *transport) enqueueOn(to model.NodeID, addr string, env envelope, bulk bool) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	p, ok := t.peers[to]
	if !ok {
		p = newPeerConn(to, addr)
		t.peers[to] = p
	}
	p.setAddr(addr)
	q := p.queue
	if bulk {
		q = p.bulk
	}
	dropped := false
	select {
	case q <- env:
	default:
		dropped = true
	}
	spawn := !dropped && !p.running
	if spawn {
		p.running = true
		t.wg.Add(1)
		t.writersActive.Add(1)
	}
	t.mu.Unlock()
	if spawn {
		go t.run(p)
	}
	if dropped {
		if bulk {
			t.stats.Add("transport_drops_bulk_full", 1)
		} else {
			t.stats.Add("transport_drops_queue_full", 1)
		}
	}
}

func newPeerConn(to model.NodeID, addr string) *peerConn {
	return &peerConn{
		to:    to,
		addr:  addr,
		queue: make(chan envelope, sendQueueCap),
		bulk:  make(chan envelope, bulkQueueCap),
	}
}

// peer returns (creating if needed) the peerConn for a destination
// WITHOUT starting its writer — enqueue owns spawning. Returns nil after
// close. Exists for tests that inspect per-peer state (gobOnly).
func (t *transport) peer(to model.NodeID, addr string) *peerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	p, ok := t.peers[to]
	if !ok {
		p = newPeerConn(to, addr)
		t.peers[to] = p
	}
	return p
}

// park retires an idle writer: under t.mu — the same lock every enqueue
// pushes under — it re-checks the queue and, if still empty, clears
// running so the next enqueue respawns. Returns false when an envelope
// raced in, in which case the caller keeps draining.
func (t *transport) park(p *peerConn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(p.queue) > 0 || len(p.bulk) > 0 {
		return false
	}
	p.running = false
	return true
}

// writers reports how many writer goroutines are currently live.
func (t *transport) writers() int64 { return t.writersActive.Load() }

// queueDepth sums the outbound backlog across all peers (a point-in-time
// gauge).
func (t *transport) queueDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	depth := 0
	for _, p := range t.peers {
		depth += len(p.queue) + len(p.bulk)
	}
	return depth
}

// close stops every writer and waits for them. Safe to call twice.
func (t *transport) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.done)
	t.mu.Unlock()
	t.wg.Wait()
}

// countingWriter counts bytes that reach the socket (post-coalescing, so
// one Add per flush, not per envelope).
type countingWriter struct {
	w     io.Writer
	stats *metrics.SyncCounter
	label string
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.stats.Add(cw.label, int64(n))
	}
	return n, err
}

// peerWriter is one writer goroutine's connection state: the socket, the
// batching buffer, and the codec negotiated for the current stream.
type peerWriter struct {
	t   *transport
	p   *peerConn
	rng *rand.Rand

	conn   net.Conn
	bw     *bufio.Writer // coalesces frames; flushed once per batch
	gobEnc *gob.Encoder  // non-nil ⇒ this stream speaks the gob fallback

	dialFails int  // consecutive dial failures (drives backoff + eviction)
	notified  bool // onPeerDown fired for the current outage
	// negotiateTimeouts counts consecutive ack timeouts; a streak of
	// legacyNegotiateStreak makes the gob downgrade sticky (see connect).
	negotiateTimeouts int
}

// run is the writer goroutine for one peer: it drains the queue in
// batches, dialing lazily and reusing the stream across messages. A
// writer whose queue stays empty for writerIdle parks — closes its
// stream and exits — and the next enqueue respawns it; the respawned
// writer re-dials, re-negotiates the codec (the sticky gobOnly verdict
// survives on the peerConn), and re-resolves the peer's current address,
// so a peer that moved while the link was parked is picked up cleanly.
func (t *transport) run(p *peerConn) {
	defer t.wg.Done()
	defer t.writersActive.Add(-1)
	w := &peerWriter{
		t: t, p: p,
		rng: rand.New(rand.NewSource(t.seed + int64(t.from)*7919 + int64(p.to)*104729)),
	}
	defer w.drop()
	var idle *time.Timer
	var idleC <-chan time.Time
	if t.writerIdle > 0 {
		idle = time.NewTimer(t.writerIdle)
		defer idle.Stop()
		idleC = idle.C
	}
	resetIdle := func() {
		if idle == nil {
			return
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(t.writerIdle)
	}
	// fillBatch coalesces whatever is already queued behind the batch's
	// first envelope: every waiting protocol frame first, then at most
	// maxBulkPerBatch chunks into the slots protocol traffic left free.
	// No waiting anywhere, so a lone envelope still flushes immediately.
	fillBatch := func(batch []envelope) []envelope {
	drainProto:
		for len(batch) < maxBatchMsgs {
			select {
			case e := <-p.queue:
				batch = append(batch, e)
			default:
				break drainProto
			}
		}
		bulkTaken := 0
	drainBulk:
		for len(batch) < maxBatchMsgs && bulkTaken < maxBulkPerBatch {
			select {
			case e := <-p.bulk:
				batch = append(batch, e)
				bulkTaken++
			default:
				break drainBulk
			}
		}
		return batch
	}
	batch := make([]envelope, 0, maxBatchMsgs)
	for {
		// Biased receive: when both queues are ready the unbiased select
		// below would pick at random, letting a saturating transfer win
		// half the flushes. Protocol frames go first, always.
		select {
		case env := <-p.queue:
			if !w.deliver(fillBatch(append(batch[:0], env))) {
				return
			}
			resetIdle()
			continue
		default:
		}
		select {
		case <-t.done:
			return
		case <-idleC:
			if t.park(p) {
				t.stats.Add("transport_writer_parks", 1)
				return
			}
			// An envelope raced the timer: keep running, drain it on the
			// next loop iteration with a fresh idle window.
			idle.Reset(t.writerIdle)
		case env := <-p.queue:
			if !w.deliver(fillBatch(append(batch[:0], env))) {
				return // transport closed mid-backoff
			}
			resetIdle()
		case env := <-p.bulk:
			// Protocol frames that arrived since the last flush still
			// jump ahead of this chunk inside the batch.
			batch = batch[:0]
		proto:
			for len(batch) < maxBatchMsgs-1 {
				select {
				case e := <-p.queue:
					batch = append(batch, e)
				default:
					break proto
				}
			}
			batch = append(batch, env)
			if !w.deliver(fillBatch(batch)) {
				return
			}
			resetIdle()
		}
	}
}

// deliver writes one batch through the persistent stream — usually one
// syscall for the whole batch via the buffered writer. The retry budget
// is per batch; envelopes already framed when a flush fails are lost
// (best-effort, exactly like bytes that made it into a dead kernel
// buffer) and only the envelope that failed mid-write is retried on the
// reconnected stream. Only envelopes confirmed on the socket by a
// successful Flush count as transport_sends (and in the batch
// histogram); framed-but-unflushed envelopes are send failures. Returns
// false when the transport closed.
func (w *peerWriter) deliver(batch []envelope) bool {
	t := w.t
	sent := 0  // next envelope to frame (the resume point after a reconnect)
	acked := 0 // confirmed on the socket by a successful Flush
	lost := 0  // framed into a stream that died before their flush
	for attempt := 0; attempt < maxSendAttempts; attempt++ {
		if attempt > 0 {
			t.stats.Add("transport_retries", 1)
		}
		if w.conn == nil {
			ok, alive := w.connect()
			if !alive {
				return false
			}
			if !ok {
				continue // dial failed; backoff already served
			}
		} else if attempt == 0 {
			t.stats.Add("transport_reuses", 1)
		}
		w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		var err error
		for sent < len(batch) {
			if err = w.writeEnvelope(batch[sent]); err != nil {
				break
			}
			sent++
			if t.flushEach.Load() {
				if err = w.bw.Flush(); err != nil {
					break
				}
				acked = sent - lost
			}
		}
		if err == nil {
			if err = w.bw.Flush(); err == nil {
				acked = sent - lost
			}
		}
		if err != nil {
			// Stream broke (peer restarted or died): everything framed
			// but not yet flushed died with the buffer. Reconnect on the
			// next attempt and resume from the failed envelope.
			lost = sent - acked
			w.drop()
			t.stats.Add("transport_reconnects", 1)
			continue
		}
		break
	}
	if acked > 0 {
		t.stats.Add("transport_sends", int64(acked))
		t.batches.Observe(float64(acked))
	}
	if failed := len(batch) - acked; failed > 0 {
		t.stats.Add("transport_send_failures", int64(failed))
	}
	return true
}

// connect dials the peer and, unless it is known to be gob-only,
// negotiates the v2 codec. On dial failure it serves the backoff and
// returns ok=false; alive reports whether the transport is still open.
func (w *peerWriter) connect() (ok, alive bool) {
	t, p := w.t, w.p
	c, err := t.dialPeer(p.currentAddr())
	gobStream := p.gobOnly.Load() || t.forceGob.Load()
	if err == nil && !gobStream {
		switch negotiate(c) {
		case negotiated:
			w.negotiateTimeouts = 0
		case legacyPeer:
			// It closed the stream on the preamble — proof it will never
			// ack. Redial and speak gob to this peer from now on.
			c.Close()
			t.stats.Add("codec_fallback", 1)
			p.gobOnly.Store(true)
			gobStream = true
			c, err = t.dialPeer(p.currentAddr())
		case negotiateFailed:
			// Ambiguous. A REAL pre-v2 receiver does not close on the
			// preamble — its gob decoder reads 'P' as an 80-byte message
			// length and blocks (up to readIdleTimeout) waiting for the
			// rest — so an ack timeout is the normal legacy signal in a
			// genuine mixed deployment. But it is also what a v2 peer
			// restarting between accept and ack (or stalled under load)
			// produces. Fall back to gob for THIS stream only — v2
			// receivers sniff and accept gob, so traffic flows either
			// way — and make the downgrade sticky only after a streak of
			// consecutive timeouts, so one slow handshake cannot
			// permanently pin a v2-capable peer to the slower codec.
			c.Close()
			t.stats.Add("codec_fallback", 1)
			t.stats.Add("transport_negotiate_timeouts", 1)
			gobStream = true
			w.negotiateTimeouts++
			if w.negotiateTimeouts >= legacyNegotiateStreak {
				p.gobOnly.Store(true)
			}
			c, err = t.dialPeer(p.currentAddr())
		}
	}
	if err != nil {
		w.dialFails++
		t.stats.Add("transport_dial_failures", 1)
		if w.dialFails >= evictAfterFails && !w.notified {
			w.notified = true
			t.stats.Add("transport_peer_evictions", 1)
			if t.onPeerDown != nil {
				t.onPeerDown(p.to)
			}
		}
		return false, t.backoff(w.rng, w.dialFails)
	}
	t.stats.Add("transport_dials", 1)
	w.dialFails = 0
	w.notified = false
	w.conn = c
	w.bw = bufio.NewWriterSize(&countingWriter{w: c, stats: t.stats, label: "wire_bytes_out"}, writeBufBytes)
	if gobStream {
		w.gobEnc = gob.NewEncoder(w.bw)
	} else {
		w.gobEnc = nil
	}
	return true, true
}

// negotiationResult classifies one codec handshake attempt.
type negotiationResult int

const (
	negotiated      negotiationResult = iota // peer acked v2
	legacyPeer                               // peer closed the stream on the preamble: gob node
	negotiateFailed                          // transient failure: retry v2 on the next connect
)

// negotiate writes the v2 preamble and waits for the receiver's
// one-byte ack.
func negotiate(c net.Conn) negotiationResult {
	c.SetDeadline(time.Now().Add(negotiateTimeout))
	defer c.SetDeadline(time.Time{})
	if _, err := c.Write(wire.Preamble()); err != nil {
		return classifyNegotiateErr(err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		return classifyNegotiateErr(err)
	}
	if ack[0] != wire.Version {
		// It answered the framing handshake with a version this sender
		// does not speak; gob is the lingua franca.
		return legacyPeer
	}
	return negotiated
}

// classifyNegotiateErr separates the legacy-decoder signature from
// transient breakage. A legacy gob receiver never acks: its decoder
// chokes on the preamble and CLOSES the stream, which the sender sees as
// EOF or a reset. A deadline expiry (v2 peer restarting between accept
// and ack, or slow under load) proves nothing and must not stick the
// peer on the slow codec.
func classifyNegotiateErr(err error) negotiationResult {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return legacyPeer
	}
	return negotiateFailed
}

// writeEnvelope frames one envelope onto the buffered stream with the
// codec negotiated at connect time. Chunk descriptors become bytes only
// here: wire generates them inside the outgoing frame; gob cannot, so a
// legacy stream gets the expanded Chunk (correct, one allocation slower).
func (w *peerWriter) writeEnvelope(env envelope) error {
	if w.gobEnc != nil {
		if ref, ok := env.Msg.(wire.ChunkRef); ok {
			env.Msg = ref.Chunk()
		}
		return w.gobEnc.Encode(env)
	}
	return wire.WriteEnvelope(w.bw, env)
}

// drop closes and forgets the current stream.
func (w *peerWriter) drop() {
	if w.conn != nil {
		w.conn.Close()
	}
	w.conn, w.bw, w.gobEnc = nil, nil, nil
}

// backoff sleeps min(base<<(fails-1), cap) plus up to 50% jitter,
// returning false if the transport closed while waiting.
func (t *transport) backoff(rng *rand.Rand, fails int) bool {
	d := backoffCap
	if shift := uint(fails - 1); shift < 6 {
		d = backoffBase << shift
	}
	if d > backoffCap {
		d = backoffCap
	}
	d += time.Duration(rng.Int63n(int64(d/2) + 1))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.done:
		return false
	}
}
