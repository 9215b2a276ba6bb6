package livenet

import (
	"context"
	"sync"
	"testing"
	"time"
)

// Close-race tests: every public accessor, called while the node shuts
// down and after, must return — with its usual answer, or
// with ErrClosed or a zero value once the node is closed — and never
// block on a node that is gone.

// watchdog fails the test if fn doesn't return within the deadline —
// the failure mode under test is "blocks forever", which otherwise
// stalls the whole package run.
func watchdog(t *testing.T, deadline time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatal("call blocked past the watchdog deadline — close race")
	}
}

// TestCloseRaceAccessors hammers every public accessor from many
// goroutines while the cluster shuts down underneath them — and a
// second node's Leave, which closes that node itself — then calls each
// once more after Close returns. No call may block or panic; post-close
// calls must degrade to zero values / ErrClosed.
func TestCloseRaceAccessors(t *testing.T) {
	c, inst := launchSmall(t, 77)
	n, leaver := c.Nodes[0], c.Nodes[1]
	cat := bigCategory(inst)
	doc := inst.Catalog.Cats[0].Docs[0]

	var wg sync.WaitGroup
	start := make(chan struct{})
	hammer := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				fn()
			}
		}()
	}
	hammer(func() { n.Served() })
	hammer(func() { n.KnownPeers() })
	hammer(func() { n.InFlight() })
	hammer(func() { n.Stats() })
	hammer(func() { n.TableSizes() })
	hammer(func() { n.OverduePending(0) })
	hammer(func() { n.MembershipCounts() })
	hammer(func() { leaver.Leave() })
	hammer(func() { n.Publish(doc) })
	hammer(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		n.QueryContext(ctx, cat, 1)
	})

	close(start)
	time.Sleep(10 * time.Millisecond) // let the hammer get going mid-flight
	watchdog(t, 10*time.Second, c.Close)
	watchdog(t, 10*time.Second, wg.Wait)

	// After Close every call must return immediately with a sane value.
	watchdog(t, 5*time.Second, func() {
		if n.KnownPeers() < 0 {
			t.Error("KnownPeers negative after close")
		}
		n.Served()
		n.InFlight()
		n.Stats()
		if ts := n.TableSizes(); ts["pending"] != 0 {
			t.Errorf("pending=%d after close, want 0", ts["pending"])
		}
		n.OverduePending(0)
		n.MembershipCounts()
		n.Leave()
		leaver.Leave()
		if err := n.Publish(doc); err != ErrClosed {
			t.Errorf("Publish after close: %v, want ErrClosed", err)
		}
		if _, err := n.Query(cat, 1, 100*time.Millisecond); err != ErrClosed {
			t.Errorf("Query after close: %v, want ErrClosed", err)
		}
	})
}
