package memnet

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// TestRingNeverWrittenHoldsNoBuffer: a dialed connection on which
// nobody writes allocates no ring buffer in either direction.
func TestRingNeverWrittenHoldsNoBuffer(t *testing.T) {
	c, s := pair(t, New())
	defer c.Close()
	defer s.Close()
	cc := c.(*conn)
	if n, m := cap(cc.rd.buf), cap(cc.wr.buf); n != 0 || m != 0 {
		t.Fatalf("an unused connection holds %d + %d ring bytes, want none", n, m)
	}
}

// TestRingAckStaysSmall: the direction that carries one handshake-sized
// byte (a stream's server→client ack) holds the start size and no more,
// and the direction that never carried a byte still holds nothing.
func TestRingAckStaysSmall(t *testing.T) {
	c, s := pair(t, New())
	defer c.Close()
	defer s.Close()
	if _, err := s.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		t.Fatal(err)
	}
	cc := c.(*conn)
	if got := cap(cc.rd.buf); got == 0 || got > ringStartBytes {
		t.Errorf("the ack's ring holds %d bytes, want 1..%d", got, ringStartBytes)
	}
	if got := cap(cc.wr.buf); got != 0 {
		t.Errorf("the unused direction holds %d bytes, want none", got)
	}
}

// TestRingBulkGrowsToCap: a bulk write still grows a ring from nothing
// to the fabric's cap, and the bytes come out intact.
func TestRingBulkGrowsToCap(t *testing.T) {
	for _, nw := range []*Network{New(), NewSized(1 << 20)} {
		c, s := pair(t, nw)
		payload := make([]byte, 4*nw.ringMax)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		go func() {
			c.Write(payload)
			c.Close()
		}()
		// Let the writer fill the ring before reading.
		cc := c.(*conn)
		for {
			cc.wr.mu.Lock()
			full := cc.wr.n == nw.ringMax
			cc.wr.mu.Unlock()
			if full {
				break
			}
			runtime.Gosched()
		}
		if got := cap(cc.wr.buf); got != nw.ringMax {
			t.Errorf("ring cap %d: a bulk write grew it to %d", nw.ringMax, got)
		}
		got, err := io.ReadAll(s)
		if err != nil || string(got) != string(payload) {
			t.Fatalf("ring cap %d: %d of %d bytes read intact (%v)", nw.ringMax, len(got), len(payload), err)
		}
		s.Close()
	}
}

// TestListenerBacklogRefusals pins the accept queue's two refusals: a
// dial beyond backlog un-accepted connections is refused as "backlog
// full" (and accepting one makes room again), and once the listener is
// closed every queued connection reads EOF and every dial is refused —
// also through a listener looked up before the Close. An idle listener
// holds no queue storage.
func TestListenerBacklogRefusals(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	l := ln.(*listener)
	if l.pend != nil {
		t.Fatal("a fresh listener holds accept-queue storage")
	}
	addr := ln.Addr().String()
	var dialed []net.Conn
	for i := 0; i < backlog; i++ {
		c, err := nw.Dial(addr)
		if err != nil {
			t.Fatalf("dial %d of %d refused: %v", i+1, backlog, err)
		}
		dialed = append(dialed, c)
	}
	if _, err := nw.Dial(addr); err == nil || !strings.Contains(err.Error(), "backlog full") {
		t.Fatalf("dial past the backlog: %v, want refused as backlog full", err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c, err := nw.Dial(addr)
	if err != nil {
		t.Fatalf("dial after an accept made room: %v", err)
	}
	dialed = append(dialed, c)

	ln.Close()
	for i, c := range dialed[1:] {
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("queued connection %d after Close: read %v, want EOF", i+1, err)
		}
	}
	if _, err := nw.Dial(addr); err == nil {
		t.Fatal("dial to a closed listener succeeded")
	}
	// A dialer that resolved the listener before Close is refused too
	// (the registry no longer has it, so go through the listener itself).
	nw.mu.Lock()
	nw.listeners[addr] = l
	nw.mu.Unlock()
	if _, err := nw.Dial(addr); err == nil || strings.Contains(err.Error(), "backlog") {
		t.Fatalf("dial through a closed listener: %v, want refused", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("accept on a closed listener succeeded")
	}
	if l.pend != nil {
		t.Fatal("a closed listener still holds its accept queue")
	}
	s.Close()
}
