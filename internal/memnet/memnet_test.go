package memnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// pair dials a fresh listener on nw and returns both ends.
func pair(t *testing.T, nw *Network) (client, server net.Conn) {
	t.Helper()
	ln, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	c, err := nw.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

// TestRoundTrip moves data both directions through one connection,
// crossing the ring-wrap boundary many times.
func TestRoundTrip(t *testing.T) {
	nw := New()
	c, s := pair(t, nw)
	defer c.Close()
	defer s.Close()

	var wg sync.WaitGroup
	payload := make([]byte, 1<<20) // 1MB: forces growth, wrap, and backpressure
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Write(payload); err != nil {
			t.Errorf("write: %v", err)
		}
		c.Close()
	}()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted in transit: %d bytes in, %d out", len(payload), len(got))
	}
}

// TestAutoAssignAddrsUnique checks ":0" listens get distinct addresses.
func TestAutoAssignAddrsUnique(t *testing.T) {
	nw := New()
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		ln, err := nw.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addr := ln.Addr().String()
		if seen[addr] {
			t.Fatalf("address %s assigned twice", addr)
		}
		seen[addr] = true
	}
}

// TestDialUnknownRefused checks dials to unbound addresses fail fast.
func TestDialUnknownRefused(t *testing.T) {
	nw := New()
	if _, err := nw.Dial("mem:404"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
	ln, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := nw.Dial(addr); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
}

// TestReadDeadline checks an armed deadline unblocks a pending read
// with a net.Error whose Timeout() is true, and that clearing it works.
func TestReadDeadline(t *testing.T) {
	nw := New()
	c, s := pair(t, nw)
	defer c.Close()
	defer s.Close()

	s.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 8)
	_, err := s.Read(buf)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("deadline read returned %v, want net.Error timeout", err)
	}

	// Cleared deadline: the read must block until data arrives.
	s.SetReadDeadline(time.Time{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		c.Write([]byte("late"))
	}()
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("post-clear read = %q, %v", buf[:n], err)
	}
}

// TestDeadlineMoves pins what livenet relies on per frame: a deadline
// moved forward fires at its new time and not its old, one moved back
// fires early, one that passed can be re-armed, moving it allocates
// nothing (so no timer is made per move), and it may be moved while
// another goroutine uses the stream.
func TestDeadlineMoves(t *testing.T) {
	c, s := pair(t, New())
	defer c.Close()
	defer s.Close()
	buf := make([]byte, 8)
	for _, tc := range []struct{ first, then, min, max time.Duration }{
		{30 * time.Millisecond, 150 * time.Millisecond, 150 * time.Millisecond, time.Minute},
		{time.Hour, 30 * time.Millisecond, 30 * time.Millisecond, time.Minute},
	} {
		start := time.Now()
		s.SetReadDeadline(start.Add(tc.first)) // arms the timer for first ...
		s.SetReadDeadline(start.Add(tc.then))  // ... which then is not when the deadline is
		_, err := s.Read(buf)
		var nerr net.Error
		if d := time.Since(start); !errors.As(err, &nerr) || !nerr.Timeout() || d < tc.min || d > tc.max {
			t.Fatalf("deadline %v moved to %v: read returned %v after %v", tc.first, tc.then, err, d)
		}
	}

	far := time.Now().Add(time.Hour)
	if a := testing.AllocsPerRun(100, func() {
		far = far.Add(time.Millisecond)
		s.SetReadDeadline(far) // also re-arms the passed deadline
		c.SetWriteDeadline(far)
	}); a != 0 {
		t.Fatalf("moving a deadline forward allocates %v times", a)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.SetDeadline(time.Now().Add(time.Hour))
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		c.Write([]byte("ping"))
		if n, err := s.Read(buf); err != nil || n != 4 {
			t.Fatalf("round trip %d under a moving deadline = %d, %v", i, n, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWriteDeadlineUnderBackpressure fills the peer's ring until the
// writer blocks, then expects the write deadline to fire.
func TestWriteDeadlineUnderBackpressure(t *testing.T) {
	nw := New()
	c, s := pair(t, nw)
	defer c.Close()
	defer s.Close()

	c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	junk := make([]byte, 32<<10)
	var err error
	for i := 0; i < 64; i++ { // 2MB >> ringMaxBytes with nobody reading
		if _, err = c.Write(junk); err != nil {
			break
		}
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("blocked write returned %v, want timeout", err)
	}
}

// TestCloseSemantics pins TCP-like teardown: the peer of a closed conn
// drains buffered data, then reads EOF; writes toward the closed side
// fail.
func TestCloseSemantics(t *testing.T) {
	nw := New()
	c, s := pair(t, nw)
	defer s.Close()

	if _, err := c.Write([]byte("parting gift")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	if string(got) != "parting gift" {
		t.Fatalf("drained %q", got)
	}
	if _, err := s.Write([]byte("into the void")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

// TestNoGoroutinesPerConn pins the package's scaling property: a
// thousand established idle connections add no goroutines.
func TestNoGoroutinesPerConn(t *testing.T) {
	nw := New()
	before := runtime.NumGoroutine()
	conns := make([]net.Conn, 0, 2000)
	ln, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for i := 0; i < 1000; i++ {
		c, err := nw.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		s, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c, s)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("1000 idle conns grew goroutines %d -> %d", before, after)
	}
	for _, c := range conns {
		c.Close()
	}
}

// TestConcurrentConns hammers many connections at once under the race
// detector.
func TestConcurrentConns(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const conns = 32
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := nw.Dial(ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 4096)
			if _, err := c.Write(msg); err != nil {
				t.Errorf("conn %d write: %v", i, err)
			}
		}(i)
	}
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			buf := make([]byte, 4096)
			if _, err := io.ReadFull(s, buf); err != nil {
				t.Errorf("accept read: %v", err)
				return
			}
			for _, b := range buf {
				if b != buf[0] {
					t.Error("interleaved bytes across conns")
					return
				}
			}
		}()
	}
	wg.Wait()
}
