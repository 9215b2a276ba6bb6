package livenet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/memnet"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// TestCorruptAdaptationFramesFailSafe sends adaptation messages a
// corrupt frame or a peer with a different catalog shape could produce —
// out-of-range category ids inside load maps, an out-of-range cluster
// id, moves to nonexistent categories and clusters, a gossiped entry for
// a category outside the catalog, and a move counter near max-uint64 —
// each on a stream of its own, and checks the node rejects them all
// (counted), keeps its DCRT intact, keeps taking frames, and
// still accepts a legitimate move afterwards (the huge counter must not
// wedge the category).
func TestCorruptAdaptationFramesFailSafe(t *testing.T) {
	nw := memnet.New()
	// An hour-long epoch: the clock never fires during the test, so the
	// only adaptation traffic is what the test sends.
	c := launchOverMemnet(t, churnShape(), nil, nw, Options{
		Adaptation: &AdaptConfig{Interval: time.Hour},
	})

	n, from := c.Nodes[0], c.Nodes[1].id
	victim := catalog.CategoryID(-1)
	locked(n, func(n *Node) {
		for cat, e := range n.dcrt {
			if e.Cluster == 0 && (victim == -1 || cat < victim) {
				victim = cat
			}
		}
	})
	if victim == -1 {
		t.Fatal("no category assigned to cluster 0 in this shape")
	}
	send := func(msg any) { sendFrame(t, nw.Dial, n.Addr(), envelope{From: from, Msg: msg}).Close() }

	// Ids outside the shape fail the whole frame at decode, one stream and
	// one count each.
	for i, msg := range []any{
		wire.LeaderLoad{Epoch: 1, Cluster: 0, Aggregated: true,
			Hits:  map[catalog.CategoryID]int64{-4: 10, 9999: 3, victim: 1},
			Units: map[catalog.CategoryID]float64{-1: 2},
		},
		wire.LeaderLoad{Epoch: 1, Cluster: 99},
		wire.Move{Category: -3, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}},
		wire.Move{Category: victim, Entry: protocol.DCRTEntry{Cluster: 99, MoveCounter: 1}},
		protocol.MetadataUpdateMsg{Entries: map[catalog.CategoryID]protocol.DCRTEntry{
			7777: {Cluster: 1, MoveCounter: 2},
		}},
	} {
		rejectFrame(t, nw.Dial, n.Addr(), envelope{From: from, Msg: msg})
		if got := n.Stats()["wire_bad_frames"]; got != int64(i+1) {
			t.Fatalf("wire_bad_frames = %d after %T frame %d, want %d", got, msg, i, i+1)
		}
	}
	// An implausible counter jump is well-formed; the merge rule refuses it.
	send(wire.Move{Category: victim, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: ^uint64(0)}})
	waitFor(t, 5*time.Second, "counter jump refused", func() bool { return n.Stats()["adapt_bad_moves"] == 1 })

	// The node still takes frames and the DCRT is untouched.
	readEntry := func() (e protocol.DCRTEntry) {
		locked(n, func(n *Node) { e = n.dcrt[victim] })
		return e
	}
	if e := readEntry(); e.Cluster != 0 || e.MoveCounter != 0 {
		t.Fatalf("corrupt frames changed the DCRT: %+v", e)
	}

	// A legitimate move still applies afterwards.
	send(wire.Move{Category: victim, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}})
	waitFor(t, 5*time.Second, "legitimate move applied", func() bool {
		e := readEntry()
		return e.Cluster == 1 && e.MoveCounter == 1
	})
}

// TestTickSkipsWhileRunning: a clock tick runs under routeMu.Lock on a
// goroutine of its own, and a tick that fires while the previous one
// still holds the lock is counted as a skip and dropped — never queued
// to run after it.
func TestTickSkipsWhileRunning(t *testing.T) {
	c := launchOverMemnet(t, churnShape(), nil, memnet.New(), Options{})
	n := c.Nodes[0]
	const period, hold = 5 * time.Millisecond, 150 * time.Millisecond

	var mu sync.Mutex
	var fired []time.Time
	var skips atomic.Int64
	n.routeMu.Lock()
	n.everyLocked(period, &skips, func(now time.Time) {
		mu.Lock()
		fired = append(fired, now)
		first := len(fired) == 1
		mu.Unlock()
		if first {
			time.Sleep(hold) // the tick holds routeMu.Lock throughout
		}
	})
	n.routeMu.Unlock()

	waitFor(t, 10*time.Second, "two ticks run", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(fired) >= 2
	})
	mu.Lock()
	first, second := fired[0], fired[1]
	mu.Unlock()
	// A tick queued behind the first would carry a fire time from inside
	// its hold; the next tick to run fired after the hold ended.
	if gap := second.Sub(first); gap < hold-2*period {
		t.Fatalf("second tick fired %v after the first, inside its %v hold: it was queued", gap, hold)
	}
	if got := skips.Load(); got < 5 {
		t.Fatalf("%d skips while one tick held the lock for %v at a %v period, want >= 5", got, hold, period)
	}
}
