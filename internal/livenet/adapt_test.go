package livenet

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/membership"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
	"p2pshare/internal/wire"
)

// TestCorruptAdaptationFramesFailSafe sends adaptation messages a
// corrupt frame or a peer with a different catalog shape could produce —
// out-of-range category ids inside load maps, an out-of-range cluster
// id, DCRT rows naming nonexistent categories and clusters on each probe
// kind, and a move counter near max-uint64 — each on a stream of its
// own, and checks the node rejects them all (counted), keeps its DCRT
// intact, keeps taking frames, and still accepts a legitimate move
// afterwards (the huge counter must not wedge the category).
func TestCorruptAdaptationFramesFailSafe(t *testing.T) {
	nw := memnet.New()
	// An hour-long epoch: the clock never fires during the test, so the
	// only adaptation traffic is what the test sends.
	c := launchOverMemnet(t, churnShape(), nil, nw, Options{
		Membership: true,
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
		membership.Ping{Moves: []membership.Move{{Category: -3, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}}}},
		moveProbe(victim, protocol.DCRTEntry{Cluster: 99, MoveCounter: 1}),
		membership.PingReq{Target: from, Moves: []membership.Move{{Category: 7777, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 2}}}},
	} {
		rejectFrame(t, nw.Dial, n.Addr(), envelope{From: from, Msg: msg})
		if got := n.Stats()["wire_bad_frames"]; got != int64(i+1) {
			t.Fatalf("wire_bad_frames = %d after %T frame %d, want %d", got, msg, i, i+1)
		}
	}
	// An implausible counter jump is well-formed; the merge rule refuses it.
	send(moveProbe(victim, protocol.DCRTEntry{Cluster: 1, MoveCounter: ^uint64(0)}))
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
	send(moveProbe(victim, protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}))
	waitFor(t, 5*time.Second, "legitimate move applied", func() bool {
		e := readEntry()
		return e.Cluster == 1 && e.MoveCounter == 1
	})
}

// moveProbe is the carrier a DCRT row rides between nodes: an ack, which
// asks for no reply, whose DCRT list holds the one row.
func moveProbe(cat catalog.CategoryID, e protocol.DCRTEntry) membership.Ack {
	return membership.Ack{Moves: []membership.Move{{Category: cat, Entry: e}}}
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

// TestPublishAckMoveTakesEffect: a DCRT row learned from a publish ack
// goes through the same merge as one from a probe. A node that learns a
// move from an ack first, then hears it again on the piggyback, ends
// with the holder view, share and DCRT of a twin node — same seed, same
// deployment — that heard it on the piggyback alone.
func TestPublishAckMoveTakesEffect(t *testing.T) {
	sh := Shape{Documents: 200, Categories: 6, Nodes: 16, Clusters: 2, Seed: 9}
	viaAck := launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1})
	viaProbe := launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1})
	cat := bigCategory(viaAck.inst)
	cur := viaAck.Nodes[0].dcrtEntryForTest(cat)
	to := 1 - cur.Cluster
	entry := protocol.DCRTEntry{Cluster: to, MoveCounter: cur.MoveCounter + 1}

	// A member of the gaining cluster that the moved placement gives a
	// share, so the share is part of what must match.
	share := replica.PlaceCategory(viaAck.inst, cat, viaAck.Nodes[0].members[to], replica.DefaultConfig())
	k := model.NodeID(-1)
	for _, id := range viaAck.Nodes[0].members[to] {
		if len(share[id]) > 0 {
			k = id
			break
		}
	}
	if k < 0 {
		t.Fatal("the moved placement gives no member of the gaining cluster a share")
	}
	from := viaAck.Nodes[0].members[cur.Cluster][0]
	ack := protocol.PublishAckMsg{Doc: viaAck.inst.Catalog.Cats[cat].Docs[0], Category: cat, Entry: entry, Accepted: true}
	viaAck.Nodes[k].routeInbound(envelope{From: from, Msg: ack})
	viaAck.Nodes[k].routeInbound(envelope{From: from, Msg: moveProbe(cat, entry)})
	viaProbe.Nodes[k].routeInbound(envelope{From: from, Msg: moveProbe(cat, entry)})

	type state struct {
		row   protocol.DCRTEntry
		view  protocol.View
		docs  []catalog.DocID
		moves int64
	}
	read := func(n *Node) (s state) {
		locked(n, func(n *Node) {
			s = state{n.dcrt[cat], n.holders.of(cat), slices.Clone(n.byCat[cat]), n.stats.DCRTMoves.Load()}
		})
		return s
	}
	got, want := read(viaAck.Nodes[k]), read(viaProbe.Nodes[k])
	if want.row != entry || want.moves != 1 || !slices.Equal(want.docs[:len(share[k])], share[k]) {
		t.Fatalf("the piggyback alone left row %+v, %d moves, documents %v; want %+v, 1 move, the share %v first",
			want.row, want.moves, want.docs, entry, share[k])
	}
	if got.row != want.row || got.moves != want.moves || !slices.Equal(got.docs, want.docs) ||
		got.view.Placed != want.view.Placed || !slices.EqualFunc(got.view.Holders, want.view.Holders, sameHolder) {
		t.Fatalf("ack then piggyback: row %+v, %d moves, documents %v, view %v\npiggyback alone: row %+v, %d moves, documents %v, view %v",
			got.row, got.moves, got.docs, got.view, want.row, want.moves, want.docs, want.view)
	}
}

// TestMoveSpreadsOnProbes: a move the leader applies reaches every live
// node on the probes' piggyback alone. Over random shapes of 4–40 nodes
// and 2–6 clusters, with and without one node killed just before the
// move, every live node's DCRT row and holder view for the moved
// category match the leader's within 3·(⌈log₂ n⌉+1) probe intervals —
// the detector's retransmit bound — times 5/4 (a probe round starts on
// the first membership tick after its interval, and the tick is a
// quarter interval) plus one second for scheduling under -race.
func TestMoveSpreadsOnProbes(t *testing.T) {
	const probe = 50 * time.Millisecond
	rng := rand.New(rand.NewPCG(46, 15))
	for i := 0; i < 14; i++ {
		sh := Shape{Documents: 300, Categories: 12, Nodes: 4 + rng.IntN(37), Clusters: 2 + rng.IntN(5), Seed: int64(200 + i)}
		if i >= 10 { // then the corners: fewest and most nodes and clusters
			sh.Nodes, sh.Clusters = []int{4, 4, 40, 40}[i-10], []int{2, 6, 6, 2}[i-10]
		}
		kill := i%2 == 1
		t.Run(fmt.Sprintf("nodes=%d/clusters=%d/kill=%v", sh.Nodes, sh.Clusters, kill), func(t *testing.T) {
			c := launchOverMemnet(t, sh, nil, memnet.New(), Options{CacheBytes: -1, Membership: true, probeInterval: probe})
			n0 := c.Nodes[0]
			cat := catalog.CategoryID(rng.IntN(sh.Categories))
			cur := n0.dcrtEntryForTest(cat)
			to := (cur.Cluster + 1 + model.ClusterID(rng.IntN(sh.Clusters-1))) % model.ClusterID(sh.Clusters)
			var leader model.NodeID
			locked(n0, func(n *Node) { leader, _ = n.leaderOf(cur.Cluster) })
			live := map[model.NodeID]bool{}
			for _, n := range c.Nodes {
				live[n.id] = true
			}
			if kill {
				victim := model.NodeID(rng.IntN(sh.Nodes - 1))
				if victim >= leader {
					victim++
				}
				c.Nodes[victim].Close()
				delete(live, victim)
			}

			entry := protocol.DCRTEntry{Cluster: to, MoveCounter: cur.MoveCounter + 1}
			var view protocol.View
			locked(c.Nodes[leader], func(n *Node) {
				n.applyMoveEntry(cat, entry)
				view = n.holders.of(cat)
			})
			start := time.Now()
			agreed := func() bool {
				for id := range live {
					same := false
					locked(c.Nodes[id], func(n *Node) {
						v := n.holders.of(cat)
						same = n.dcrt[cat] == entry && v.Placed == view.Placed && slices.EqualFunc(v.Holders, view.Holders, sameHolder)
					})
					if !same {
						return false
					}
				}
				return true
			}
			rounds := 3 * (bits.Len(uint(sh.Nodes-1)) + 1) // 3·(⌈log₂ n⌉+1)
			limit := time.Duration(rounds)*probe*5/4 + time.Second
			for !agreed() {
				if time.Since(start) > limit {
					t.Fatalf("live nodes still disagree on category %d's row and holders %v after the move (bound %d intervals + slack = %v)",
						cat, time.Since(start), rounds, limit)
				}
				time.Sleep(probe / 10)
			}
			el := time.Since(start)
			t.Logf("agreed after %v = %.1f probe intervals (bound %d)", el.Round(time.Millisecond), float64(el)/float64(probe), rounds)
		})
	}
}
