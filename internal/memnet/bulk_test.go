package memnet

import (
	"crypto/sha256"
	"io"
	"testing"
	"time"
)

// TestSizedRingCap pins NewSized's knob: a sized fabric's rings grow to
// the requested cap, the default fabric keeps the historical 128 KB.
func TestSizedRingCap(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   *Network
		want int
	}{
		{"default", New(), ringMaxBytes},
		{"sized-1MB", NewSized(1 << 20), 1 << 20},
		{"below-start-clamped", NewSized(1), ringStartBytes},
	} {
		client, server := pair(t, tc.nw)
		// Fill without a reader: writes must accept exactly the ring cap
		// before blocking. The deadline is armed per Write, so only the
		// write that blocks on the full ring can time out — one deadline
		// for the whole fill would race it against a slow or -race box.
		done := make(chan int, 1)
		go func() {
			total := 0
			buf := make([]byte, 8<<10)
			for {
				client.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
				n, err := client.Write(buf)
				total += n
				if err != nil {
					done <- total
					return
				}
			}
		}()
		got := <-done
		if got != tc.want {
			t.Errorf("%s: buffered %d bytes before blocking, want %d", tc.name, got, tc.want)
		}
		client.Close()
		server.Close()
	}
}

// TestBulkThroughput streams a multi-MB payload through one sized conn
// — the shape of a chunk transfer — and checks integrity end to end.
// The assertion is correctness plus forward progress (a generous wall
// clock bound), not a benchmark number.
func TestBulkThroughput(t *testing.T) {
	const total = 64 << 20
	nw := NewSized(2 << 20)
	client, server := pair(t, nw)
	defer client.Close()
	defer server.Close()

	start := time.Now()
	errc := make(chan error, 1)
	sum := make(chan [32]byte, 1)
	go func() {
		h := sha256.New()
		n, err := io.CopyN(h, server, total)
		if err != nil || n != total {
			errc <- err
			return
		}
		var out [32]byte
		h.Sum(out[:0])
		sum <- out
	}()

	h := sha256.New()
	buf := make([]byte, 256<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	sent := 0
	for sent < total {
		n := len(buf)
		if total-sent < n {
			n = total - sent
		}
		h.Write(buf[:n])
		if _, err := client.Write(buf[:n]); err != nil {
			t.Fatalf("write after %d bytes: %v", sent, err)
		}
		sent += n
	}
	var want [32]byte
	h.Sum(want[:0])

	select {
	case got := <-sum:
		if got != want {
			t.Fatal("bulk stream corrupted in transit")
		}
	case err := <-errc:
		t.Fatalf("reader: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("bulk stream made no progress")
	}
	elapsed := time.Since(start)
	t.Logf("moved %d MB in %v (%.0f MB/s)", total>>20, elapsed,
		float64(total)/(1<<20)/elapsed.Seconds())
}
