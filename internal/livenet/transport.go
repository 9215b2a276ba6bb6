package livenet

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
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
// every message. The stream belongs to the peer's link, with a bounded
// outbound queue. A writer goroutine runs on a link only while frames
// wait in its queue: it dials lazily, reconnects on failure with capped
// exponential backoff plus jitter, drains the queue and exits, leaving
// the stream open for the next frame. A link at rest costs no
// goroutine on its sending side.
//
// Five things make the wire path fast and cheap:
//
//   - Write-through on idle links. A protocol frame posted by a goroutine
//     that holds no node lock (lanePost) is framed and flushed to the stream
//     by that goroutine itself when the link is idle: the stream is
//     live, both queues are empty and nobody is mid-flush (the
//     stream's write mutex, wmu, is free to TryLock). The common query
//     path — a caller's entry send, a reader's answer or forward — and a
//     fetch caller's requests thus start no goroutine. Everything else
//     queues and, if no writer is running, spawns one: the first dial,
//     reconnect backoff, bulk chunks, backlogs, frames on the queue lane,
//     and a write-through that failed, whose frame goes back to the head
//     of the queue. The writer takes each batch under wmu, so frames
//     leave a stream in the order they were handed over.
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
//     slices grown by demand up to their caps while frames wait, and let
//     go when the writer exits; only a node with a content store ever
//     fills a bulk queue, and the backoff jitter source is made on a
//     first failed connect.
//   - No fixed tax per frame. The per-message counters are atomic cells
//     held by the goroutine that bumps them, the writer takes a whole
//     batch under one lock acquisition, and stream deadlines are
//     re-armed only when a quarter of their window has gone by
//     (lazyDeadline) — so a timeout T takes effect after between ¾·T
//     and T of trouble, and a busy stream touches its timer every T/4
//     instead of every frame.
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
	// handshake) mark a peer down (later writers keep retrying — a
	// restarted peer is picked up again — but the node stops routing
	// queries through it).
	evictAfterFails = 5
	// sendQueueCap bounds each peer's outbound queue (a bound, not an
	// allocation: the queue grows to what is waiting); send never
	// blocks its caller — overflow is dropped and counted.
	sendQueueCap = 256
	// defaultWriterIdle is how long a link may carry no frame — neither
	// a writer's batch nor a write-through — before the transport's idle
	// tick closes its stream; the next send to the peer dials afresh.
	// Open streams, and the far side's reader goroutines, therefore
	// scale with ACTIVE links, not address-book size — the property that
	// lets a 10k-node in-process cluster idle at one goroutine per node.
	// Options.WriterIdle overrides it (negative: streams never close).
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
// and flush one batch (transport.write) and returns it empty and
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
	// stopIdle stops the idle tick (closeIdle), registered with the
	// first link when writerIdle > 0; nil until then.
	stopIdle func()

	done chan struct{}
	wg   sync.WaitGroup

	// writerIdle is how long a stream may carry no frame before the idle
	// tick closes it (see defaultWriterIdle); negative: never. Set before
	// the node's loops start, read-only after.
	writerIdle time.Duration
	// writersActive gauges how many writer goroutines exist right now
	// (spawned minus exited) — exported as transport_writers_active.
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

// peerConn is one destination peer's link: its queues and address,
// guarded by transport.mu, and its stream, guarded by wmu. The stream
// outlives the writer goroutines: a writer runs only while frames wait,
// and a write-through borrows the stream under wmu with none running.
//
// Two outbound queues implement the data/control priority split: queue
// carries protocol frames (queries, probes, adaptation — everything
// latency-sensitive), bulk carries chunk transfers. The writer drains
// protocol strictly first and admits at most maxBulkPerBatch bulk
// envelopes per flush, so a saturating transfer cannot starve the
// protocol path — it only uses the bandwidth protocol traffic leaves
// idle. Both queues are slices grown by demand and capped at
// sendQueueCap/bulkQueueCap, so a link holds room for the burst
// waiting now, not for the worst one it might see; bulk is only ever
// filled on a transport with a bulk lane.
type peerConn struct {
	to model.NodeID
	// running reports whether a writer goroutine currently owns the
	// queues. Guarded by transport.mu, like queue and bulk: a writer that
	// finds both queues empty clears it under the same lock every
	// producer appends under, so a frame either finds a running writer
	// or spawns one.
	running     bool
	queue, bulk []envelope
	// addr is the peer's latest known address, stored by every send and
	// read by a writer when it dials. Guarded by transport.mu.
	addr string

	// wmu is held by whoever uses the stream: a writer for a whole
	// delivery (take, connect, write), a sender writing through, the idle
	// tick closing it. Order: wmu before transport.mu; a holder of
	// transport.mu only ever TryLocks wmu.
	wmu      sync.Mutex
	conn     net.Conn
	out      countingConn // conn, counted as wire_bytes_out
	deadline lazyDeadline // conn's write deadline, writeTimeout ahead
	// last is the coarse clock when the stream last carried a frame; the
	// idle tick closes it writerIdle later.
	last time.Duration
	// The connect-failure state outlives a writer that exits between
	// failures, so eviction fires after evictAfterFails however the
	// failures fell across writers.
	connectFails int        // consecutive failed connects (drives backoff + eviction)
	notified     bool       // onPeerDown fired for the current outage
	rng          *rand.Rand // backoff jitter; made on the first failed connect
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
// link — stream live, both queues empty, nobody mid-flush — is
// written through on the calling goroutine. Anything else is queued for
// the peer's writer, spawned if none is running, and never blocks: a
// full queue drops the message (counted) rather than stall a caller who
// may hold routeMu or the query table's lock.
func (t *transport) send(to model.NodeID, addr string, env envelope, l lane) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	p, ok := t.peers[to]
	if !ok {
		p = &peerConn{to: to}
		t.peers[to] = p
		if t.stopIdle == nil && t.writerIdle > 0 {
			t.stopIdle = timerwheel.Default().Every(t.writerIdle/2, t.closeIdle)
		}
	}
	p.addr = addr
	if l == lanePost && len(p.queue)+len(p.bulk) == 0 && p.wmu.TryLock() {
		if p.conn != nil {
			t.mu.Unlock()
			t.writeThrough(p, env)
			p.wmu.Unlock()
			return
		}
		p.wmu.Unlock()
	}
	switch {
	case l != laneBulk && len(p.queue) < sendQueueCap:
		p.queue = append(p.queue, env)
	case l == laneBulk && t.bulkLane && len(p.bulk) < bulkQueueCap:
		p.bulk = append(p.bulk, env)
	default:
		t.mu.Unlock()
		if l == laneBulk {
			t.stats.TransportDropsBulkFull.Add(1)
		} else {
			t.stats.TransportDropsQueueFull.Add(1)
		}
		return
	}
	t.spawnLocked(p)
	t.mu.Unlock()
}

// spawnLocked starts a writer on p unless one is running. Caller holds
// t.mu and has just queued a frame on p.
func (t *transport) spawnLocked(p *peerConn) {
	if p.running {
		return
	}
	p.running = true
	t.wg.Add(1)
	t.writersActive.Add(1)
	go t.run(p)
}

// take moves the next flush's envelopes out of p's queues into batch,
// under one lock acquisition: every waiting protocol frame first (up to
// maxBatchMsgs), then at most maxBulkPerBatch chunks into the slots
// protocol traffic left free. When the whole protocol queue fits, the
// slices are swapped instead of copied — batch, which the writer hands
// in empty, becomes the queue. When both queues are empty it clears
// running and lets go of their storage, and returns the empty batch:
// the writer exits, and the next frame queued spawns another.
func (t *transport) take(p *peerConn, batch []envelope) []envelope {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(p.queue)+len(p.bulk) == 0 {
		p.queue, p.bulk = nil, nil
		p.running = false
		return batch
	}
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

// closeIdle is the idle tick, every writerIdle/2 on the timer wheel: it
// closes each stream that has carried no frame for writerIdle, so a
// silent link's stream closes between writerIdle and 1.5·writerIdle
// after its last frame. The far reader sees EOF and exits; the next
// send to the peer dials afresh, at the address the book holds then. A
// stream a writer runs on, or whose wmu is taken, is busy, not idle.
func (t *transport) closeIdle(time.Time) {
	now := timerwheel.Default().Coarse()
	closes := 0
	t.mu.Lock()
	for _, p := range t.peers {
		if p.running || !p.wmu.TryLock() {
			continue
		}
		if p.conn != nil && now-p.last >= t.writerIdle {
			p.drop()
			closes++
		}
		p.wmu.Unlock()
	}
	t.mu.Unlock()
	t.stats.TransportIdleCloses.Add(int64(closes))
}

// close stops the idle tick, waits for every writer and closes every
// stream. Safe to call twice.
func (t *transport) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.done)
	stopIdle := t.stopIdle
	links := make([]*peerConn, 0, len(t.peers))
	for _, p := range t.peers {
		links = append(links, p)
	}
	t.mu.Unlock()
	if stopIdle != nil {
		stopIdle()
	}
	t.wg.Wait()
	for _, p := range links {
		p.wmu.Lock()
		p.drop()
		p.wmu.Unlock()
	}
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

// run is a writer goroutine, spawned by a send that queued a frame on a
// link with no writer running. It drains both queues in batches,
// dialing first when the link has no stream, and exits when take finds
// them empty. The stream stays with the link, for write-throughs and
// the next writer; the respawned writer that dials reads the peer's
// current address, so a peer that moved while its link was closed is
// picked up cleanly.
func (t *transport) run(p *peerConn) {
	defer t.wg.Done()
	defer t.writersActive.Add(-1)
	// batch and the protocol queue trade slices (take), so a writer and
	// its queue hold two slices sized by the bursts seen; one larger than
	// a flush is let go rather than kept circulating.
	var batch []envelope
	for {
		// The batch is taken and written under wmu, so no write-through
		// slips between a frame's take and its flush.
		p.wmu.Lock()
		if batch = t.take(p, batch[:0]); len(batch) == 0 {
			p.wmu.Unlock()
			return
		}
		alive := t.deliver(p, batch)
		p.wmu.Unlock()
		if !alive {
			return // transport closed mid-backoff
		}
		clear(batch) // the slice is the queue's next: it pins no message
		if cap(batch) > maxBatchMsgs {
			batch = nil
		}
	}
}

// writeThrough frames and flushes one envelope on the live stream, on
// the sending goroutine: a batch of one, counted as one send and one
// reuse. A failed write drops the stream and puts the envelope back at
// the head of the queue, ahead of anything queued while it was being
// written, for a writer to redial and retry under its budget. Caller
// holds p.wmu, and found the stream live and the queues empty.
func (t *transport) writeThrough(p *peerConn, env envelope) {
	p.deadline.touch()
	one := [1]envelope{env}
	if _, err := t.write(p, one[:]); err == nil {
		t.stats.TransportWriteThrough.Add(1)
		t.stats.TransportSends.Add(1)
		t.stats.TransportReuses.Add(1)
		t.batches.Observe(1)
		return
	}
	p.drop()
	t.stats.TransportReconnects.Add(1)
	t.stats.TransportRetries.Add(1)
	t.mu.Lock()
	if t.closed || len(p.queue) >= sendQueueCap {
		t.mu.Unlock()
		t.stats.TransportSendFailures.Add(1)
		return
	}
	p.queue = slices.Insert(p.queue, 0, env)
	t.spawnLocked(p)
	t.mu.Unlock()
}

// deliver writes one batch through the persistent stream — usually one
// syscall for the whole batch via the buffered writer. The retry budget
// is per batch; envelopes already framed when a flush fails are lost
// (best-effort, exactly like bytes that made it into a dead kernel
// buffer) and only the envelope that failed mid-write is retried on the
// reconnected stream. Only envelopes confirmed on the socket by a
// successful Flush count as transport_sends (and in the batch
// histogram); framed-but-unflushed envelopes are send failures. Returns
// false when the transport closed. Caller holds p.wmu.
func (t *transport) deliver(p *peerConn, batch []envelope) bool {
	sent := 0  // next envelope to frame (the resume point after a reconnect)
	acked := 0 // confirmed on the socket by a successful Flush
	lost := 0  // framed into a stream that died before their flush
	for attempt := 0; attempt < maxSendAttempts; attempt++ {
		if attempt > 0 {
			t.stats.TransportRetries.Add(1)
		}
		if p.conn == nil {
			ok, alive := t.connect(p)
			if !alive {
				return false
			}
			if !ok {
				continue // connect failed; backoff already served
			}
		} else if attempt == 0 {
			t.stats.TransportReuses.Add(1)
		}
		p.deadline.touch()
		framed, err := t.write(p, batch[sent:])
		sent += framed
		if err == nil {
			acked = sent - lost
			break
		}
		// Stream broke (peer restarted or died): everything framed but
		// not yet flushed died with the buffer. Reconnect on the next
		// attempt and resume from the failed envelope.
		lost = sent - acked
		p.drop()
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

// write frames envs onto p's stream and flushes them, through a write
// buffer borrowed for this call alone: it is returned empty and
// detached from the stream, so a stream between batches holds no buffer
// and bytes a failed flush left behind die here, with their stream. A
// flush stamps the stream's last use for the idle tick. framed counts
// the envelopes framed before the first error. Caller holds p.wmu.
func (t *transport) write(p *peerConn, envs []envelope) (framed int, err error) {
	bw := writeBufs.Get().(*bufio.Writer)
	bw.Reset(&p.out)
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
	if err == nil {
		p.last = timerwheel.Default().Coarse()
	}
	return framed, err
}

// connect dials the peer and opens the stream. A failed dial and a
// failed handshake are one failure: it is counted, feeds eviction, and
// the backoff is served before returning ok=false; alive reports whether
// the transport is still open. Caller holds p.wmu.
func (t *transport) connect(p *peerConn) (ok, alive bool) {
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
		p.connectFails++
		failure.Add(1)
		if p.connectFails >= evictAfterFails && !p.notified {
			p.notified = true
			t.stats.TransportPeerEvictions.Add(1)
			if t.onPeerDown != nil {
				t.onPeerDown(p.to)
			}
		}
		if p.rng == nil {
			p.rng = rand.New(rand.NewPCG(uint64(t.seed), uint64(t.from)<<32|uint64(uint32(p.to))))
		}
		return false, t.backoff(p.rng, p.connectFails)
	}
	t.stats.TransportDials.Add(1)
	p.connectFails = 0
	p.notified = false
	p.conn = c
	p.out = countingConn{conn: c, bytes: &t.stats.WireBytesOut}
	p.deadline = lazyDeadline{window: writeTimeout, set: c.SetWriteDeadline}
	return true, true
}

// drop closes and forgets the link's stream. Caller holds p.wmu.
func (p *peerConn) drop() {
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn, p.out.conn = nil, nil
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
