package livenet

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/chaos"
	"p2pshare/internal/model"
	"p2pshare/internal/replica"
)

// Seeded chaos coverage for the resend path: the scenarios the ISSUE's
// harness reproduced before the engine fixes landed. These run against
// a real loopback cluster with the chaos fault layer injected through
// Options.Hooks.

// launchChaos boots a compact live cluster with every node's dial path
// wrapped by a shared chaos controller; opts' Seed and Hooks are set.
func launchChaos(t *testing.T, seed int64, opts Options) (*Cluster, *chaos.Net, *model.Instance) {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = 300
	cfg.Catalog.NumCats = 8
	cfg.NumNodes = 10
	cfg.NumClusters = 2
	cfg.Seed = seed
	d, err := replica.Deploy(cfg, replica.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cn := chaos.New(seed)
	opts.Seed = seed
	opts.Hooks = NetHooks{
		Listen: func(id model.NodeID, addr string) (net.Listener, error) {
			ln, err := net.Listen("tcp", addr)
			if err == nil {
				cn.Register(id, ln.Addr().String())
			}
			return ln, err
		},
		Dial: cn.DialFrom,
	}
	c, err := Launch(d.Inst, d.Assign, d.Place, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, cn, d.Inst
}

// dropAllFrom sets Drop=1 on every link leaving one node — its messages
// vanish silently (dials still succeed, so no eviction side effects).
func dropAllFrom(cn *chaos.Net, from model.NodeID, peers int) {
	for to := 0; to < peers; to++ {
		if model.NodeID(to) != from {
			cn.SetLink(from, model.NodeID(to), chaos.Faults{Drop: 1})
		}
	}
}

// TestResendRecoversEntryLoss pins the loss-recovery contract: a query
// whose ENTRY message is dropped by the network still succeeds — the
// sweep notices nothing arrived, re-sends to a serving-cluster member
// under the same id (never flooded, so dedup cannot suppress it), and
// the retry lands within the maxResends budget. Seeded: the fault
// pattern replays exactly from the chaos seed.
func TestResendRecoversEntryLoss(t *testing.T) {
	const seed = 1009
	// No requester cache: it would answer the repeat query locally and
	// prove nothing.
	c, cn, inst := launchChaos(t, seed, Options{CacheBytes: -1})
	origin := c.Nodes[0]
	cat := bigCategory(inst)

	// Warm the path fault-free so streams are open; the loss below then
	// hits a data frame, not the stream handshake.
	if out, err := origin.Query(cat, 1, 5*time.Second); err != nil || !out.Done {
		t.Fatalf("warmup query failed: %+v, %v", out, err)
	}

	// Lose everything origin sends; the entry message dies on the wire.
	// Heal at 2.2s: the entry send on the warmed stream has been consumed
	// and dropped by then (on a cold one it burns its connect attempts
	// against dropped handshakes and fails), and the resend budget (two
	// sends, >= 1.2s apart) cannot be exhausted before the heal.
	dropAllFrom(cn, origin.ID(), len(c.Nodes))
	go func() {
		time.Sleep(2200 * time.Millisecond)
		cn.Clear()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := origin.QueryContext(ctx, cat, 1)
	if err != nil || !out.Done {
		t.Fatalf("query across entry loss failed (chaos seed %d): %+v, %v", seed, out, err)
	}
	s := origin.Stats()
	if s["query_resends"] < 1 {
		t.Fatalf("query succeeded without a resend; the entry loss never happened (chaos seed %d)", seed)
	}
	if s["query_resends"] > maxResends {
		t.Fatalf("resends %d exceeded maxResends %d", s["query_resends"], maxResends)
	}
}

// TestEvictedTargetsRefilled pins the resend contract: a resend reads
// the current routing tables, so when membership declares the target of
// a query's first send dead, the resend goes to a surviving member of
// the serving cluster and the query completes — instead of chasing the
// dead peer until its deadline.
func TestEvictedTargetsRefilled(t *testing.T) {
	const seed = 2003
	c, cn, inst := launchChaos(t, seed, Options{})
	origin := c.Nodes[0]
	cat := bigCategory(inst)

	// Phase 1: drop origin's sends so the query receives nothing and
	// stays in the resend-eligible state.
	dropAllFrom(cn, origin.ID(), len(c.Nodes))

	ctx, cancel := context.WithTimeout(context.Background(), 12*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		out, err := origin.QueryContext(ctx, cat, 1)
		if err == nil && !out.Done {
			err = ErrTimeout
		}
		done <- err
	}()

	// The first send is origin's only traffic: its one peer link leads to
	// the target.
	waitFor(t, 2*time.Second, "query pending", func() bool { return origin.InFlight() == 1 })
	var targets []model.NodeID
	origin.tr.mu.Lock()
	for to := range origin.tr.peers {
		targets = append(targets, to)
	}
	origin.tr.mu.Unlock()
	if len(targets) != 1 {
		t.Fatalf("origin links to %v after one send, want one target", targets)
	}
	victim := targets[0]

	// Let the entry message be consumed and dropped (on a cold stream the
	// handshake is what the fault layer drops, and the send fails after
	// its connect attempts), then declare the target dead and heal.
	time.Sleep(1300 * time.Millisecond)
	locked(origin, func(n *Node) { n.evictDeadPeer(victim) })
	cn.Clear()

	if err := <-done; err != nil {
		t.Fatalf("query whose first target died did not recover (chaos seed %d): %v", seed, err)
	}
	s := origin.Stats()
	if s["query_resends"] < 1 {
		t.Fatal("query completed without a resend")
	}
	if s["send_no_addr"] != 0 {
		t.Fatalf("send_no_addr = %d: a resend chose the evicted target", s["send_no_addr"])
	}
}

// TestUnroutableQueryExpiresNotLeaks pins the other half of the
// contract: when a resend finds NOTHING (no addressable serving-cluster
// member survives), the query expires — the caller gets its timeout and
// the sweep reaps the slot — rather than leaking a pending-table entry.
func TestUnroutableQueryExpiresNotLeaks(t *testing.T) {
	const seed = 3001
	c, cn, inst := launchChaos(t, seed, Options{})
	origin := c.Nodes[0]
	cat := bigCategory(inst)

	dropAllFrom(cn, origin.ID(), len(c.Nodes))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := origin.QueryContext(ctx, cat, 1)
		done <- err
	}()
	waitFor(t, 2*time.Second, "query pending", func() bool { return origin.InFlight() == 1 })

	// Evict every peer: the death cascade empties the NRT AND the
	// address book, so a resend has nothing to choose from.
	locked(origin, func(n *Node) {
		var ids []model.NodeID
		n.book.forEach(func(id model.NodeID, _ string) bool {
			if id != n.id {
				ids = append(ids, id)
			}
			return true
		})
		for _, id := range ids {
			n.evictDeadPeer(id)
		}
	})

	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("unroutable query returned %v, want ErrTimeout", err)
	}
	// Not leaked: the slot frees with the caller's timeout, and nothing
	// lingers past its deadline for the sweep to miss.
	waitFor(t, 3*time.Second, "pending table drained", func() bool {
		return origin.TableSizes()["pending"] == 0
	})
	if overdue := origin.OverduePending(0); overdue != 0 {
		t.Fatalf("%d pending queries leaked past their deadline", overdue)
	}
}

// TestSweepReapsAbandonedPending pins the sweep backstop directly: a
// pending entry whose caller is gone (deadline already past, nobody
// listening) is reaped by the next sweep instead of leaking forever.
func TestSweepReapsAbandonedPending(t *testing.T) {
	c, _, _ := launchChaos(t, 4001, Options{})
	n := c.Nodes[1]

	withTable(n, func(n *Node) {
		pq := &pendingQuery{
			id:       n.nextQueryID(),
			cat:      0,
			want:     1,
			docs:     map[catalog.DocID]bool{},
			ch:       make(chan QueryOutcome, 1),
			deadline: time.Now().Add(-time.Second), // already expired
		}
		n.queries.pending[pq.id] = pq
		n.inflight.Add(1)
	})

	waitFor(t, 2*sweepInterval+time.Second, "abandoned entry reaped", func() bool {
		return n.TableSizes()["pending"] == 0
	})
	if got := n.Stats()["pending_expired"]; got < 1 {
		t.Fatalf("pending_expired = %d, want >= 1", got)
	}
}
