package livenet

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/timerwheel"
	"p2pshare/internal/wire"
)

// The live transport keeps ONE persistent framed stream per
// (sender, receiver) pair instead of dialing a fresh TCP connection for
// every message. Each destination peer gets a bounded outbound queue
// drained by a dedicated writer goroutine that dials lazily, reuses the
// established stream, and reconnects on failure with capped exponential
// backoff plus jitter.
//
// Five things make the wire path fast and cheap:
//
//   - Write-through on idle links. A protocol frame posted by a goroutine
//     that holds no node lock (lanePost) is framed and flushed to the stream
//     by that goroutine itself when the link is idle: the stream is
//     live, both queues are empty and no writer is mid-flush (the
//     stream's write mutex, wmu, is free to TryLock). The common query
//     path — a caller's entry send, a reader's answer or forward — and a
//     fetch caller's requests thus skip the hand-off to the writer
//     goroutine. Everything else goes
//     through the writer: the first dial, reconnect backoff, bulk
//     chunks, backlogs, frames on the queue lane, and a
//     write-through that failed, whose frame goes back to the head of the
//     queue. The writer takes each batch under wmu, so frames leave a
//     stream in the order they were handed over.
//   - Codec. Every stream speaks internal/wire (compact varint frames,
//     no reflection, pooled encode buffers), opened by that package's
//     handshake. A handshake that fails — refused, mismatched, timed
//     out — is a failed connect like a failed dial: the stream is
//     closed and the attempt retried under the same backoff.
//   - Write coalescing under backlog. Once frames queue — a link busy
//     with a flush, a stream still dialing — the writer drains the queue
//     in batches of up to maxBatchMsgs envelopes through a 64 KB
//     bufio.Writer and flushes when the queue is empty or the batch is
//     full: many envelopes per syscall under load. A write-through is a
//     batch of one. Batch sizes are observed in a histogram; bytes that
//     reach the socket are counted as wire_bytes_out.
//   - A link costs what it carries. The write buffer is borrowed from a
//     process-wide pool to frame and flush one batch and handed back
//     after the flush, so between batches a stream holds no buffer: live
//     write buffers track the writers flushing right now, not the
//     streams open (a 1000-node cluster keeps ~12 000). The queues are
//     slices grown by demand up to their caps, not channels allocated
//     at their caps, so a link that carries one query at a time holds
//     room for about one; only a node with a content store ever fills a
//     bulk queue, and the backoff jitter source is made on a first
//     failed connect.
//   - No fixed tax per frame. The per-message counters are atomic cells
//     held by the goroutine that bumps them, the writer takes a whole
//     batch under one lock acquisition and enters a select only to wait,
//     and stream deadlines are re-armed only when a quarter of their
//     window has gone by (lazyDeadline) — so a timeout T takes effect
//     after between ¾·T and T of trouble, and a busy stream touches its
//     timer every T/4 instead of every frame.
//
// A write-through can wait on the peer's socket buffer, for at most
// writeTimeout (the stream's lazily armed deadline), which is why only a
// goroutine holding no node lock may post (nodeio.go).
//
// Messages carry a small retry budget; a batch that exhausts it is
// dropped (the protocols are best-effort, exactly as in the simulator)
// and counted. After enough consecutive connect failures the transport
// reports the peer as down so the node can evict it from its NRT —
// graceful degradation instead of silently routing into a black hole.
const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds one batch write+flush on an established stream
	// (armed lazily: a blocked write fails after ¾ of this to all of it).
	writeTimeout = 2 * time.Second
	// handshakeTimeout bounds the stream-open handshake (the preamble
	// write plus the one-byte ack read).
	handshakeTimeout = 1 * time.Second
	// maxSendAttempts is the per-batch retry budget (failed connects and
	// broken-stream rewrites both consume attempts).
	maxSendAttempts = 3
	// backoffBase/backoffCap shape the reconnect backoff: base<<fails,
	// capped, plus up to 50% jitter.
	backoffBase = 25 * time.Millisecond
	backoffCap  = 1 * time.Second
	// evictAfterFails is how many consecutive connect failures (dial or
	// handshake) mark a peer down (the writer keeps retrying afterwards —
	// a restarted peer is picked up again — but the node stops routing
	// queries through it).
	evictAfterFails = 5
	// sendQueueCap bounds each peer's outbound queue (a bound, not an
	// allocation: the queue grows to what is waiting); enqueue never
	// blocks its caller — overflow is dropped and counted.
	sendQueueCap = 256
	// defaultWriterIdle is how long a peer's link goes without a frame —
	// neither a batch of its writer nor a write-through — before the
	// writer parks: it closes its stream, exits, and is respawned lazily
	// by the next enqueue. Writer goroutines therefore
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
	// writeBufBytes sizes the write buffer a batch is framed into; a
	// batch that outgrows it flushes early inside bufio.
	writeBufBytes = 64 << 10
)

// writeBufs holds the batch write buffers: a writer borrows one to frame
// and flush one batch (peerWriter.write) and returns it empty and
// detached from the stream.
var writeBufs = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, writeBufBytes) },
}

// transport is one node's connection pool. All methods are safe for
// concurrent use: send is called from the node's
// connection readers, API callers and ticks while the writers run.
type transport struct {
	from    model.NodeID
	seed    int64
	stats   *counters             // the node's counters
	batches *metrics.IntHistogram // envelopes coalesced per flush

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
	// bulkLane lets laneBulk sends fill a peer's bulk queue. Only a node
	// with a content store sends chunks; without the lane a bulk envelope
	// is dropped as if the queue were full. Set before the node's loops
	// start, read-only after.
	bulkLane bool

	// dial is swappable so tests can inject dial failures.
	dialMu sync.Mutex
	dial   func(addr string) (net.Conn, error)

	// onPeerDown fires on the peer's writer goroutine, which holds that
	// peer's wmu but not t.mu, after evictAfterFails consecutive connect
	// failures to one peer.
	onPeerDown func(model.NodeID)
}

// peerConn is the queue and address of one destination peer. The
// connection itself lives in its writer goroutine's peerWriter, which a
// write-through borrows under wmu.
//
// Two outbound queues implement the data/control priority split: queue
// carries protocol frames (queries, probes, adaptation — everything
// latency-sensitive), bulk carries chunk transfers. The writer drains
// protocol strictly first and admits at most maxBulkPerBatch bulk
// envelopes per flush, so a saturating transfer cannot starve the
// protocol path — it only uses the bandwidth protocol traffic leaves
// idle. Both queues are slices grown by demand and capped at
// sendQueueCap/bulkQueueCap, so a link holds room for the burst it has
// seen, not for the worst one it might; bulk is only ever filled on a
// transport with a bulk lane.
type peerConn struct {
	to model.NodeID
	// running reports whether a writer goroutine currently owns the
	// queues. It is guarded by transport.mu, like queue and bulk: one lock
	// for all three is what makes the park/enqueue handoff airtight: a
	// parking writer re-checks the queues under the same lock the
	// producers append under, so a message either finds a live writer or
	// spawns one.
	running bool
	// wmu is held by whoever writes the stream: the writer goroutine for
	// a whole delivery (take, connect, write), its park and its exit, or
	// a sender writing through. Order: wmu before transport.mu; a holder
	// of transport.mu only ever TryLocks wmu.
	wmu         sync.Mutex
	queue, bulk []envelope
	// wake tells a waiting writer its queues went from empty to
	// non-empty. Capacity 1, never closed: a token sent while the writer
	// is busy stays until it next waits, so a wake-up is never lost, and
	// at worst it costs one look at empty queues.
	wake chan struct{}
	// addr is the peer's latest known address, stored by every enqueue
	// and read by the writer when it dials. Guarded by transport.mu.
	addr string
	// w is the live writer's stream state, nil while no writer runs.
	// Guarded by wmu.
	w *peerWriter
}

// lazyDeadline keeps a connection deadline of window ahead without
// paying a timer reset and a clock read per frame: touch re-arms it only
// once a quarter of the window has gone by on the timerwheel's coarse
// clock, which costs one atomic load. Between re-arms the deadline
// stands where it was put, so what it bounds — a silent stream, a
// blocked write — times out after between ¾·window and window. Owned by
// one goroutine.
type lazyDeadline struct {
	window time.Duration
	set    func(time.Time) error
	armed  time.Duration // coarse clock when last armed; 0 = never
}

func (d *lazyDeadline) touch() {
	// The coarse clock may trail by a tick; re-arming that much early
	// keeps ¾·window a floor.
	now := timerwheel.Default().Coarse()
	if d.armed != 0 && now-d.armed < d.window/4-timerwheel.CoarseTick {
		return
	}
	d.armed = now
	d.set(time.Now().Add(d.window))
}

func newTransport(from model.NodeID, seed int64, stats *counters) *transport {
	return &transport{
		from:       from,
		seed:       seed,
		stats:      stats,
		batches:    metrics.NewIntHistogram(maxBatchMsgs),
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

// send hands env to the peer on lane l (nodeio.go). A post on an idle
// link — stream live, both queues empty, no writer mid-flush — is
// written through on the calling goroutine. Anything else goes to the
// peer's writer, spawned if parked (or never started), and never
// blocks: a full queue drops the message (counted) rather than stall a
// caller who may hold routeMu or the query table's lock.
func (t *transport) send(to model.NodeID, addr string, env envelope, l lane) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	p, ok := t.peers[to]
	if !ok {
		p = t.newPeerConn(to)
		t.peers[to] = p
	}
	p.addr = addr
	wasEmpty := len(p.queue)+len(p.bulk) == 0
	if l == lanePost && wasEmpty && p.wmu.TryLock() {
		if w := p.w; w != nil && w.conn != nil {
			t.mu.Unlock()
			w.writeThrough(env)
			p.wmu.Unlock()
			return
		}
		p.wmu.Unlock()
	}
	bulk := l == laneBulk
	dropped := false
	switch {
	case !bulk && len(p.queue) < sendQueueCap:
		p.queue = append(p.queue, env)
	case bulk && t.bulkLane && len(p.bulk) < bulkQueueCap:
		p.bulk = append(p.bulk, env)
	default:
		dropped = true
	}
	spawn := !dropped && !p.running
	if spawn {
		p.running = true
		t.wg.Add(1)
		t.writersActive.Add(1)
	} else if !dropped && wasEmpty {
		select {
		case p.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
	t.mu.Unlock()
	if spawn {
		go t.run(p)
	}
	if dropped {
		if bulk {
			t.stats.TransportDropsBulkFull.Add(1)
		} else {
			t.stats.TransportDropsQueueFull.Add(1)
		}
	}
}

func (t *transport) newPeerConn(to model.NodeID) *peerConn {
	return &peerConn{to: to, wake: make(chan struct{}, 1)}
}

// take moves the next flush's envelopes out of p's queues into batch,
// under one lock acquisition: every waiting protocol frame first (up to
// maxBatchMsgs), then at most maxBulkPerBatch chunks into the slots
// protocol traffic left free. When the whole protocol queue fits, the
// slices are swapped instead of copied — batch, which the writer hands
// in empty, becomes the queue. Returns an empty batch when both queues
// are.
func (t *transport) take(p *peerConn, batch []envelope) []envelope {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(p.queue) <= maxBatchMsgs {
		batch, p.queue = p.queue, batch[:0]
	} else {
		batch = append(batch, p.queue[:maxBatchMsgs]...)
		p.queue = shift(p.queue, maxBatchMsgs)
	}
	if n := min(len(p.bulk), maxBulkPerBatch, maxBatchMsgs-len(batch)); n > 0 {
		batch = append(batch, p.bulk[:n]...)
		p.bulk = shift(p.bulk, n)
	}
	return batch
}

// shift drops q's first n envelopes in place, clearing the vacated tail
// so the queue pins no message it no longer holds.
func shift(q []envelope, n int) []envelope {
	k := copy(q, q[n:])
	clear(q[k:])
	return q[:k]
}

// park retires an idle writer: under t.mu — the same lock every enqueue
// appends under — it re-checks the queues and, if still empty, clears
// running so the next enqueue respawns and lets go of their storage.
// Returns false when an envelope raced in, in which case the caller
// keeps draining.
func (t *transport) park(p *peerConn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(p.queue) > 0 || len(p.bulk) > 0 {
		return false
	}
	p.queue, p.bulk = nil, nil
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

// countingConn counts the bytes one direction of a stream carries: read
// from the socket into a read buffer, or flushed to it post-coalescing —
// one Add per fill or flush, not per envelope.
type countingConn struct {
	conn  net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// peerWriter is one writer goroutine's connection state: the socket,
// its byte counter and its write deadline. The buffer a batch is framed
// into is borrowed per batch (writeBufs), not held here. The stream
// fields are used by whoever holds the peer's wmu.
type peerWriter struct {
	t   *transport
	p   *peerConn
	rng *rand.Rand // backoff jitter; made on the first failed connect

	conn     net.Conn
	out      countingConn // conn, counted as wire_bytes_out
	deadline lazyDeadline // conn's write deadline, writeTimeout ahead
	// through is the coarse clock at the last write-through, so the
	// writer's idle clock counts frames it never saw; 0 = none yet.
	through time.Duration

	connectFails int  // consecutive failed connects (drives backoff + eviction)
	notified     bool // onPeerDown fired for the current outage
}

// run is the writer goroutine for one peer: it drains the queue in
// batches, dialing lazily and reusing the stream across messages. A
// link that carries no frame — no batch, no write-through — for
// writerIdle parks its writer: it closes its stream and exits, and the
// next enqueue respawns it; the respawned writer re-resolves the peer's
// current address and opens a fresh stream, so a peer that moved while
// the link was parked is picked up cleanly.
func (t *transport) run(p *peerConn) {
	defer t.wg.Done()
	defer t.writersActive.Add(-1)
	w := &peerWriter{t: t, p: p}
	p.wmu.Lock()
	p.w = w
	p.wmu.Unlock()
	defer func() {
		p.wmu.Lock()
		w.retire()
		p.wmu.Unlock()
	}()
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
	// batch and the protocol queue trade slices (take), so a running
	// writer and its queue hold two slices sized by the bursts seen; one
	// larger than a flush is let go rather than kept circulating.
	var batch []envelope
	for {
		// Whatever is queued goes out now — a lone envelope flushes
		// immediately. The batch is taken and written under wmu, so no
		// write-through slips between a frame's take and its flush. The
		// select is entered only to wait, and only after a take found both
		// queues empty: any enqueue since then left a token in wake.
		p.wmu.Lock()
		if batch = t.take(p, batch[:0]); len(batch) == 0 {
			p.wmu.Unlock()
			select {
			case <-t.done:
				return
			case <-idleC:
				// A write-through since the timer was set is activity too:
				// wait out the rest of the window from it.
				p.wmu.Lock()
				if since := timerwheel.Default().Coarse() - w.through; w.through != 0 && since < t.writerIdle {
					p.wmu.Unlock()
					idle.Reset(t.writerIdle - since)
					continue
				}
				parked := t.park(p)
				if parked {
					w.retire()
				}
				p.wmu.Unlock()
				if parked {
					t.stats.TransportWriterParks.Add(1)
					return
				}
				// An envelope raced the timer: keep running, drain it on
				// the next loop iteration with a fresh idle window.
				idle.Reset(t.writerIdle)
			case <-p.wake:
			}
			continue
		}
		alive := w.deliver(batch)
		p.wmu.Unlock()
		if !alive {
			return // transport closed mid-backoff
		}
		clear(batch) // the slice is the queue's next: it pins no message
		if cap(batch) > maxBatchMsgs {
			batch = nil
		}
		resetIdle()
	}
}

// retire closes the writer's stream and unhooks it from its peer, so no
// write-through finds it; a second call is a no-op, even once a
// respawned writer has hooked itself in. Caller holds the peer's wmu.
func (w *peerWriter) retire() {
	w.drop()
	if w.p.w == w {
		w.p.w = nil
	}
}

// writeThrough frames and flushes one envelope on the live stream, on
// the sending goroutine: a batch of one, counted as one send and one
// reuse. A failed write drops the stream and puts the envelope back at
// the head of the queue, ahead of anything queued while it was being
// written, for the writer to redial and retry under its budget. Caller
// holds the peer's wmu, and found the stream live and the queues empty.
func (w *peerWriter) writeThrough(env envelope) {
	t, p := w.t, w.p
	w.deadline.touch()
	one := [1]envelope{env}
	if _, err := w.write(one[:]); err == nil {
		w.through = timerwheel.Default().Coarse()
		t.stats.TransportWriteThrough.Add(1)
		t.stats.TransportSends.Add(1)
		t.stats.TransportReuses.Add(1)
		t.batches.Observe(1)
		return
	}
	w.drop()
	t.stats.TransportReconnects.Add(1)
	t.stats.TransportRetries.Add(1)
	t.mu.Lock()
	if t.closed || len(p.queue) >= sendQueueCap {
		t.mu.Unlock()
		t.stats.TransportSendFailures.Add(1)
		return
	}
	p.queue = append(p.queue, envelope{})
	copy(p.queue[1:], p.queue)
	p.queue[0] = env
	t.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default: // a token is already waiting
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
			t.stats.TransportRetries.Add(1)
		}
		if w.conn == nil {
			ok, alive := w.connect()
			if !alive {
				return false
			}
			if !ok {
				continue // connect failed; backoff already served
			}
		} else if attempt == 0 {
			t.stats.TransportReuses.Add(1)
		}
		w.deadline.touch()
		framed, err := w.write(batch[sent:])
		sent += framed
		if err == nil {
			acked = sent - lost
			break
		}
		// Stream broke (peer restarted or died): everything framed but
		// not yet flushed died with the buffer. Reconnect on the next
		// attempt and resume from the failed envelope.
		lost = sent - acked
		w.drop()
		t.stats.TransportReconnects.Add(1)
	}
	if acked > 0 {
		t.stats.TransportSends.Add(int64(acked))
		t.batches.Observe(acked)
	}
	if failed := len(batch) - acked; failed > 0 {
		t.stats.TransportSendFailures.Add(int64(failed))
	}
	return true
}

// write frames envs onto the current stream and flushes them, through a
// write buffer borrowed for this call alone: it is returned empty and
// detached from the stream, so a stream between batches holds no buffer
// and bytes a failed flush left behind die here, with their stream.
// framed counts the envelopes framed before the first error.
func (w *peerWriter) write(envs []envelope) (framed int, err error) {
	bw := writeBufs.Get().(*bufio.Writer)
	bw.Reset(&w.out)
	for _, env := range envs {
		if err = wire.WriteEnvelope(bw, env); err != nil {
			break
		}
		framed++
	}
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil)
	writeBufs.Put(bw)
	return framed, err
}

// connect dials the peer and opens the stream. A failed dial and a
// failed handshake are one failure: it is counted, feeds eviction, and
// the backoff is served before returning ok=false; alive reports whether
// the transport is still open.
func (w *peerWriter) connect() (ok, alive bool) {
	t, p := w.t, w.p
	failure := &t.stats.TransportDialFailures
	t.mu.Lock()
	addr := p.addr
	t.mu.Unlock()
	c, err := t.dialPeer(addr)
	if err == nil {
		if err = wire.OpenStream(c, handshakeTimeout); err != nil {
			c.Close()
			failure = &t.stats.TransportHandshakeFailures
		}
	}
	if err != nil {
		w.connectFails++
		failure.Add(1)
		if w.connectFails >= evictAfterFails && !w.notified {
			w.notified = true
			t.stats.TransportPeerEvictions.Add(1)
			if t.onPeerDown != nil {
				t.onPeerDown(p.to)
			}
		}
		if w.rng == nil {
			w.rng = rand.New(rand.NewPCG(uint64(t.seed), uint64(t.from)<<32|uint64(uint32(p.to))))
		}
		return false, t.backoff(w.rng, w.connectFails)
	}
	t.stats.TransportDials.Add(1)
	w.connectFails = 0
	w.notified = false
	w.conn = c
	w.out = countingConn{conn: c, bytes: &t.stats.WireBytesOut}
	w.deadline = lazyDeadline{window: writeTimeout, set: c.SetWriteDeadline}
	return true, true
}

// drop closes and forgets the current stream.
func (w *peerWriter) drop() {
	if w.conn != nil {
		w.conn.Close()
	}
	w.conn, w.out.conn = nil, nil
}

// sendOnce dials addr outside the pool, opens a stream and writes one
// envelope on it: a joining node's hello to a bootstrap peer it knows
// only by address.
func sendOnce(addr string, env envelope) error {
	conn, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return fmt.Errorf("livenet: bootstrap %s: %w", addr, err)
	}
	defer conn.Close()
	if err = wire.OpenStream(conn, handshakeTimeout); err == nil {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		bw := bufio.NewWriter(conn)
		if err = wire.WriteEnvelope(bw, env); err == nil {
			err = bw.Flush()
		}
	}
	if err != nil {
		return fmt.Errorf("livenet: announce: %w", err)
	}
	return nil
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
	d += time.Duration(rng.Int64N(int64(d/2) + 1))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.done:
		return false
	}
}
