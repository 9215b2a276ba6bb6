// Package memnet is an in-process network fabric: net.Listener and
// net.Conn implementations backed by in-memory ring buffers instead of
// kernel sockets. It exists so one process can run paper-scale live
// clusters — ten thousand livenet nodes and their peer links — without
// hitting file-descriptor limits or paying kernel socket overhead, while
// keeping the exact net interfaces the transport, the read loops, and
// the chaos fault layer are written against.
//
// Design constraints, in order:
//
//   - Zero goroutines and zero file descriptors per connection. A
//     memnet conn is two ring buffers, each with a lock and a condition
//     variable per side; a listener is a registry entry plus an accept
//     queue. Ten thousand idle nodes
//     cost ten thousand registry entries, not ten thousand OS objects.
//   - Deadline-capable, and cheaply. livenet moves the read deadline
//     (idle reaping) on every frame and the write deadline (batch
//     timeout) on every batch; net.Pipe's deadline discipline is
//     reproduced here over buffered pipes, and moving a deadline or
//     blocking on a ring allocates nothing and touches no runtime timer.
//   - Buffered with backpressure. Unlike net.Pipe, writes complete
//     without a reader in rendezvous — they fill a bounded ring and
//     block only when it is full, mirroring a kernel socket buffer.
//     That is what lets the transport's batch writer coalesce frames
//     exactly as it does over TCP.
//   - Memory by traffic, not by connection. Like TCP receive-buffer
//     autotuning, a ring allocates nothing until its first write, then
//     starts small and doubles as writes demand up to the fabric's cap;
//     an accept queue holds only the connections waiting in it. A
//     direction that never carries a byte and a listener with nothing
//     pending hold no buffer, and a direction that carries only a
//     stream's 1-byte handshake ack holds 512 bytes.
//   - Composable with fault injection. Conns are plain net.Conn values,
//     so chaos.Net wraps them unchanged (chaos.Net.SetDial(nw.Dial));
//     seeded replays stay byte-identical off-kernel.
//
// Address model: Listen("host:0") auto-assigns a unique "mem:<n>"
// address; any other address string is taken verbatim. Dial resolves
// addresses against the fabric's registry only — two fabrics are fully
// isolated network universes.
package memnet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// ringStartBytes is a ring's capacity after its first write; a
	// direction that only ever carries the handshake ack or sparse query
	// frames stays at this size.
	ringStartBytes = 512
	// ringMaxBytes caps one direction's buffering — the "kernel socket
	// buffer" a writer can fill before blocking. Sized to hold one
	// maximal transport batch (64KB buffered writer flush) plus slack.
	ringMaxBytes = 128 << 10
	// backlog bounds un-accepted connections per listener, after which
	// dials are refused (ECONNREFUSED-like), as with a SYN backlog.
	backlog = 512
)

// Network is one in-process address universe. The zero value is not
// usable; call New.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*listener
	next      int
	ringMax   int // per-direction buffer cap for new conns
}

// New builds an empty fabric with the default per-direction ring cap.
func New() *Network {
	return NewSized(0)
}

// NewSized builds a fabric whose connections buffer up to ringMax bytes
// per direction before writes block (0 → the 128 KB default). Bulk
// chunk streams want megabyte rings so a multi-MB transfer doesn't
// serialize on the "kernel buffer"; control-plane tests keep the small
// default.
func NewSized(ringMax int) *Network {
	if ringMax <= 0 {
		ringMax = ringMaxBytes
	}
	if ringMax < ringStartBytes {
		ringMax = ringStartBytes
	}
	return &Network{listeners: make(map[string]*listener), ringMax: ringMax}
}

// Addr is a memnet endpoint address.
type Addr string

// Network returns "mem".
func (a Addr) Network() string { return "mem" }
func (a Addr) String() string  { return string(a) }

// Listen opens a listener. An address ending in ":0" (any host) gets a
// unique auto-assigned "mem:<n>" address, mirroring the kernel's
// ephemeral-port behavior that livenet's Launch relies on; any other
// address registers verbatim and fails if already bound.
func (nw *Network) Listen(addr string) (net.Listener, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(addr) >= 2 && addr[len(addr)-2:] == ":0" {
		nw.next++
		addr = fmt.Sprintf("mem:%d", nw.next)
	} else if _, taken := nw.listeners[addr]; taken {
		return nil, fmt.Errorf("memnet: address %s already bound", addr)
	}
	l := &listener{nw: nw, addr: Addr(addr)}
	l.ready.L = &l.mu
	nw.listeners[addr] = l
	return l, nil
}

// Dial connects to a listening address. There is no handshake latency:
// the connection exists as soon as it is queued on the listener's
// backlog, exactly like a TCP dial completing against the SYN queue
// before the application calls Accept.
func (nw *Network) Dial(addr string) (net.Conn, error) {
	nw.mu.Lock()
	l := nw.listeners[addr]
	nw.mu.Unlock()
	if l == nil {
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: Addr(addr),
			Err: fmt.Errorf("connection refused")}
	}
	c2s := newRing(nw.ringMax) // client writes, server reads
	s2c := newRing(nw.ringMax) // server writes, client reads
	client := newConn(s2c, c2s, "mem:dial", l.addr)
	server := newConn(c2s, s2c, l.addr, "mem:dial")
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: Addr(addr),
			Err: fmt.Errorf("connection refused")}
	case len(l.pend) >= backlog:
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: Addr(addr),
			Err: fmt.Errorf("connection refused: backlog full")}
	}
	l.pend = append(l.pend, server)
	l.ready.Signal()
	return client, nil
}

// listener implements net.Listener over the fabric registry.
type listener struct {
	nw   *Network
	addr Addr

	mu sync.Mutex
	// pend holds the dialed connections Accept has not taken yet, oldest
	// first, at most backlog; it is nil whenever it is empty.
	pend   []net.Conn
	closed bool
	// ready wakes Accept callers: a dial signals one, Close all.
	ready sync.Cond
}

func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pend) == 0 && !l.closed {
		l.ready.Wait()
	}
	if l.closed {
		return nil, &net.OpError{Op: "accept", Net: "mem", Addr: l.addr,
			Err: fmt.Errorf("use of closed network connection")}
	}
	c := l.pend[0]
	l.pend[0] = nil
	if l.pend = l.pend[1:]; len(l.pend) == 0 {
		l.pend = nil
	}
	return c, nil
}

func (l *listener) Close() error {
	l.nw.mu.Lock()
	if l.nw.listeners[string(l.addr)] == l {
		delete(l.nw.listeners, string(l.addr))
	}
	l.nw.mu.Unlock()
	l.mu.Lock()
	pend := l.pend
	l.pend, l.closed = nil, true
	l.ready.Broadcast()
	l.mu.Unlock()
	// Connections already queued but never accepted are dead: close
	// them so their dialers see EOF/reset instead of hanging.
	for _, c := range pend {
		c.Close()
	}
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

// ring is one direction's byte buffer: a growable circular buffer with
// close flags for each side and broadcast wakeups for blocked readers
// and writers. No goroutines; waiting is done by the calling goroutine
// on a condition variable that data, room, a close and an expiring
// deadline all broadcast on, so a wait allocates nothing.
type ring struct {
	mu   sync.Mutex
	buf  []byte
	r    int  // read offset
	n    int  // bytes buffered
	max  int  // growth cap for this ring
	werr bool // write side closed: readers drain then EOF
	rerr bool // read side closed: writes fail immediately
	// Readers wait on data for bytes, writers on space for room; both
	// share mu.
	data, space sync.Cond
}

// newRing makes a ring with no buffer: the first write allocates it.
func newRing(max int) *ring {
	if max <= 0 {
		max = ringMaxBytes
	}
	rg := &ring{max: max}
	rg.data.L, rg.space.L = &rg.mu, &rg.mu
	return rg
}

// grow makes room for want more bytes: the first call allocates
// ringStartBytes, later ones double, as often as want needs, up to the
// cap; content is linearized. Caller holds mu; returns free space after
// growing.
func (rg *ring) grow(want int) int {
	size := len(rg.buf)
	if size == 0 {
		size = min(ringStartBytes, rg.max)
	}
	for size-rg.n < want && size < rg.max {
		size = min(2*size, rg.max)
	}
	if size == len(rg.buf) {
		return size - rg.n
	}
	nb := make([]byte, size)
	rg.copyOut(nb[:rg.n])
	rg.buf, rg.r = nb, 0
	return len(rg.buf) - rg.n
}

// copyOut copies the first len(p) buffered bytes into p without
// consuming them. Caller holds mu and guarantees len(p) <= rg.n.
func (rg *ring) copyOut(p []byte) {
	first := len(rg.buf) - rg.r
	if first > len(p) {
		first = len(p)
	}
	copy(p[:first], rg.buf[rg.r:rg.r+first])
	copy(p[first:], rg.buf[:len(p)-first])
}

// write appends as much of p as fits, returning bytes consumed and
// whether the read side is gone. Caller holds mu.
func (rg *ring) write(p []byte) int {
	free := len(rg.buf) - rg.n
	if free < len(p) {
		free = rg.grow(len(p))
	}
	if free == 0 {
		return 0
	}
	w := (rg.r + rg.n) % len(rg.buf)
	take := len(p)
	if take > free {
		take = free
	}
	first := len(rg.buf) - w
	if first > take {
		first = take
	}
	copy(rg.buf[w:w+first], p[:first])
	copy(rg.buf[:take-first], p[first:take])
	rg.n += take
	if take > 0 {
		rg.data.Broadcast()
	}
	return take
}

// read consumes up to len(p) buffered bytes. Caller holds mu.
func (rg *ring) read(p []byte) int {
	take := rg.n
	if take > len(p) {
		take = len(p)
	}
	if take == 0 {
		return 0
	}
	rg.copyOut(p[:take])
	rg.r = (rg.r + take) % len(rg.buf)
	rg.n -= take
	rg.space.Broadcast()
	return take
}

// closeWrite marks the producer gone (readers drain then EOF);
// closeRead marks the consumer gone (writes fail, buffered data is
// dropped). Both wake everyone.
func (rg *ring) closeWrite() {
	rg.mu.Lock()
	rg.werr = true
	rg.data.Broadcast()
	rg.space.Broadcast()
	rg.mu.Unlock()
}

func (rg *ring) closeRead() {
	rg.mu.Lock()
	rg.rerr = true
	rg.n = 0
	rg.data.Broadcast()
	rg.space.Broadcast()
	rg.mu.Unlock()
}

// deadline manages one direction's deadline. livenet moves it forward on
// every frame it reads and every batch it writes, so moving it must cost
// no allocation and no runtime timer operation: set records the new
// time, and the one timer a deadline owns is touched only when it has to
// run EARLIER than it is already due to. A timer that runs before the
// recorded time re-arms itself for the remainder; one that runs after it
// marks the deadline expired and wakes the waiters it bounds.
type deadline struct {
	rg   *ring      // the ring whose waiters this deadline bounds ...
	cond *sync.Cond // ... and the side of it they wait on

	expired atomic.Bool // the deadline has passed; a later set clears it

	mu    sync.Mutex
	at    time.Time   // the deadline; zero = none
	timer *time.Timer // runs fire; created on first use, then reused
	due   time.Time   // when timer next runs; zero = not armed
}

// set arms (or clears, for the zero time) the deadline.
func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.at = t
	if t.IsZero() {
		d.expired.Store(false)
		return // a timer still armed finds nothing to do
	}
	dur := time.Until(t)
	if dur <= 0 {
		d.expire()
		return
	}
	d.expired.Store(false)
	if !d.due.IsZero() && !d.due.After(t) {
		return // the armed timer runs first and re-arms for the rest
	}
	d.due = t
	if d.timer == nil {
		d.timer = time.AfterFunc(dur, d.fire)
	} else {
		d.timer.Reset(dur)
	}
}

// fire runs on the timer.
func (d *deadline) fire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.due = time.Time{}
	if d.at.IsZero() {
		return
	}
	if dur := time.Until(d.at); dur > 0 {
		d.due = d.at
		d.timer.Reset(dur)
		return
	}
	d.expire()
}

// expire marks the deadline passed and wakes the waiters. Caller holds
// d.mu; taking the ring's lock as well means a waiter between its check
// and its wait is not missed.
func (d *deadline) expire() {
	d.rg.mu.Lock()
	d.expired.Store(true)
	d.cond.Broadcast()
	d.rg.mu.Unlock()
}

// conn is one endpoint of a memnet connection.
type conn struct {
	rd, wr        *ring
	local, remote Addr
	rdead, wdead  deadline
	closed        sync.Once
}

func newConn(rd, wr *ring, local, remote Addr) *conn {
	c := &conn{rd: rd, wr: wr, local: local, remote: remote}
	c.rdead.rg, c.rdead.cond = rd, &rd.data
	c.wdead.rg, c.wdead.cond = wr, &wr.space
	return c
}

func (c *conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	rg := c.rd
	rg.mu.Lock()
	defer rg.mu.Unlock()
	for {
		if c.rdead.expired.Load() {
			return 0, timeoutError("read", c.remote)
		}
		if rg.rerr {
			return 0, &net.OpError{Op: "read", Net: "mem", Addr: c.local,
				Err: fmt.Errorf("use of closed network connection")}
		}
		if n := rg.read(p); n > 0 {
			return n, nil
		}
		if rg.werr {
			// The real io.EOF, not a lookalike: io.ReadFull and the
			// accept path's closed-before-any-byte check match on identity.
			return 0, io.EOF
		}
		rg.data.Wait()
	}
}

func (c *conn) Write(p []byte) (int, error) {
	rg := c.wr
	rg.mu.Lock()
	defer rg.mu.Unlock()
	written := 0
	for written < len(p) {
		if c.wdead.expired.Load() {
			return written, timeoutError("write", c.remote)
		}
		if rg.rerr || rg.werr {
			return written, &net.OpError{Op: "write", Net: "mem", Addr: c.remote,
				Err: fmt.Errorf("connection reset by peer")}
		}
		if n := rg.write(p[written:]); n > 0 {
			written += n
			continue
		}
		rg.space.Wait()
	}
	return written, nil
}

// Close tears down both directions: our outstanding writes are
// delivered (the peer drains, then reads EOF), our read side drops
// undelivered bytes and fails the peer's future writes — TCP close
// semantics, minus the RST subtleties.
func (c *conn) Close() error {
	c.closed.Do(func() {
		c.wr.closeWrite()
		c.rd.closeRead()
	})
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.rdead.set(t)
	c.wdead.set(t)
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error  { c.rdead.set(t); return nil }
func (c *conn) SetWriteDeadline(t time.Time) error { c.wdead.set(t); return nil }

// timeoutError matches net package behavior: a deadline expiry is a
// net.Error with Timeout() true.
func timeoutError(op string, addr Addr) error {
	return &net.OpError{Op: op, Net: "mem", Addr: addr, Err: timeoutErr{}}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }
