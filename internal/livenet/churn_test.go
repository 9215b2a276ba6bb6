package livenet

import (
	"context"
	"sync"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/membership"
	"p2pshare/internal/model"
)

// churnShape is a small all-nodes-running deployment: every shape node
// is started, so every cluster has live members.
func churnShape() Shape {
	return Shape{Documents: 200, Categories: 8, Nodes: 5, Clusters: 2, Seed: 91}
}

// TestChurnHardKillDetectedAndQueriesSurvive boots a 5-node
// StartNode-style deployment, hard-kills one member (no Leave — a
// crash), and checks the tentpole behaviors: survivors detect the death
// and evict the peer from book and NRT, in-flight queries that may have
// targeted the victim still complete via resend-on-silence, and a
// graceful Leave is folded in without the suspicion delay.
func TestChurnHardKillDetectedAndQueriesSurvive(t *testing.T) {
	sh := churnShape()
	inst, _, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}

	// No requester cache on the querying node 0: repeat queries for the
	// same category must hit the network every time, or the kill-survival
	// assertions would be answered locally in zero hops and prove nothing.
	seed, err := StartNode(sh, 0, "127.0.0.1:0", "", Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{seed}
	closed := make([]bool, sh.Nodes)
	defer func() {
		for i, n := range nodes {
			if !closed[i] {
				n.Close()
			}
		}
	}()
	for id := model.NodeID(1); int(id) < sh.Nodes; id++ {
		n, err := StartNode(sh, id, "127.0.0.1:0", seed.Addr(), Options{})
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		nodes = append(nodes, n)
	}

	// Wait for the book to fully gossip.
	waitFor(t, 10*time.Second, "full address books", func() bool {
		for _, n := range nodes {
			if n.KnownPeers() != sh.Nodes {
				return false
			}
		}
		return true
	})

	// Pick a category with several live holders, and a victim (not the
	// querying node 0) that holds it — killing a holder exercises the
	// resend path rather than an untouched branch.
	holders := make(map[catalog.CategoryID]map[model.NodeID]bool)
	for k := range place.Stored {
		for _, d := range place.Stored[k] {
			cat := inst.Catalog.Doc(d).Categories[0]
			if holders[cat] == nil {
				holders[cat] = make(map[model.NodeID]bool)
			}
			holders[cat][model.NodeID(k)] = true
		}
	}
	var testCat catalog.CategoryID
	victim := model.NodeID(-1)
	for cat, hs := range holders {
		if len(hs) < 3 {
			continue
		}
		for h := range hs {
			if h != 0 {
				testCat, victim = cat, h
				break
			}
		}
		if victim != -1 {
			break
		}
	}
	if victim == -1 {
		t.Fatal("no category with enough holders in this shape")
	}

	if out, err := nodes[0].Query(testCat, 1, 5*time.Second); err != nil || !out.Done {
		t.Fatalf("pre-kill query failed: %+v, %v", out, err)
	}

	// Launch queries, then hard-kill the victim while they are in
	// flight: any query whose entry target was the victim must recover
	// by re-sending to another serving-cluster member.
	const inFlight = 8
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := nodes[0].QueryContext(ctx, testCat, 1)
			if err == nil && !out.Done {
				err = ErrTimeout
			}
			errs[i] = err
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let some queries reach the wire
	killed := time.Now()
	nodes[victim].Close()
	closed[victim] = true
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight query %d failed across the kill: %v", i, err)
		}
	}

	// Survivors detect the death (suspect timeout + probing slack) and
	// evict the victim everywhere.
	survivors := make([]*Node, 0, sh.Nodes-1)
	for id, n := range nodes {
		if model.NodeID(id) != victim {
			survivors = append(survivors, n)
		}
	}
	waitFor(t, 15*time.Second, "death detected on all survivors", func() bool {
		for _, n := range survivors {
			if alive, _ := n.MembershipCounts(); alive != sh.Nodes-1 {
				return false
			}
		}
		return true
	})
	t.Logf("death detected in %v", time.Since(killed))
	waitFor(t, 5*time.Second, "book eviction on all survivors", func() bool {
		for _, n := range survivors {
			if n.KnownPeers() != sh.Nodes-1 {
				return false
			}
		}
		return true
	})
	evictions := int64(0)
	for _, n := range survivors {
		s := n.Stats()
		evictions += s["membership_evictions"]
		if s["membership_alive"] != int64(sh.Nodes-1) {
			t.Errorf("node %d alive gauge = %d, want %d", n.ID(), s["membership_alive"], sh.Nodes-1)
		}
	}
	if evictions == 0 {
		t.Error("no membership evictions counted on any survivor")
	}

	// Queries keep succeeding after the eviction settled.
	for i := 0; i < 5; i++ {
		if out, err := nodes[0].Query(testCat, 1, 5*time.Second); err != nil || !out.Done {
			t.Fatalf("post-detection query %d failed: %+v, %v", i, out, err)
		}
	}

	// Graceful departure: Leave announces the exit, so survivors evict
	// without waiting out a suspicion.
	leaver := survivors[len(survivors)-1]
	for i, n := range nodes {
		if n == leaver {
			closed[i] = true
		}
	}
	left := time.Now()
	leaver.Leave()
	remaining := survivors[:len(survivors)-1]
	waitFor(t, 5*time.Second, "leave detected", func() bool {
		for _, n := range remaining {
			if alive, _ := n.MembershipCounts(); alive != sh.Nodes-2 {
				return false
			}
		}
		return true
	})
	if d := time.Since(left); d > 4*time.Second {
		t.Errorf("leave took %v to propagate; should not need a suspicion timeout", d)
	}
}

// TestAdaptationRebalancesSkewedLoad drives a heavily skewed workload —
// every query targets categories served by one cluster — and checks the
// §6.1 live dynamics: leaders measure the skew (fairness below the low
// threshold), the chosen leader reassigns categories, the moves
// propagate under the move-counter rule, the receiving cluster re-places
// the moved categories' documents, and the measured fairness rises.
func TestAdaptationRebalancesSkewedLoad(t *testing.T) {
	sh := Shape{Documents: 240, Categories: 8, Nodes: 12, Clusters: 2, Seed: 17}
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	// No requester cache: it would absorb every repeat query after the
	// first round — zero network traffic, zero hits, and every idle epoch
	// measuring as perfectly fair. The skew must stay live.
	c, err := Launch(inst, assign, place, Options{Seed: sh.Seed, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.StartMembership(membership.Config{})
	c.EnableAdaptation(AdaptConfig{
		Interval:       700 * time.Millisecond,
		LowThreshold:   0.9,
		TargetFairness: 0.95,
		MaxMoves:       8,
	})

	// The skewed demand: every category initially assigned to cluster 0.
	var hotCats []catalog.CategoryID
	for cat, cl := range assign {
		if cl == 0 {
			hotCats = append(hotCats, catalog.CategoryID(cat))
		}
	}
	if len(hotCats) < 2 {
		t.Skipf("shape put %d categories on cluster 0; need >= 2 to rebalance", len(hotCats))
	}
	origin := c.Nodes[0]
	driveRound := func() {
		for _, cat := range hotCats {
			origin.Query(cat, 1, 2*time.Second)
		}
	}

	// Phase 1: drive the skew until a leader measures it. An epoch that
	// closed before any hits landed measures as perfectly fair (all
	// zeros), so wait specifically for a below-threshold reading.
	initial := int64(-1)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && initial < 0 {
		driveRound()
		for _, n := range c.Nodes {
			if f := n.Fairness(); f >= 0 && f < 900 {
				initial = f
				break
			}
		}
	}
	if initial < 0 {
		t.Fatal("skew never registered: no leader measured fairness below 0.9 within 20s")
	}

	// Phase 2: keep driving until the chosen leader moves categories.
	waitMoves := time.Now().Add(20 * time.Second)
	for time.Now().Before(waitMoves) && c.Stats()["adapt_moves"] == 0 {
		driveRound()
	}
	if c.Stats()["adapt_moves"] == 0 {
		t.Fatal("no category moves despite sustained skew")
	}
	// The leader counts the announcement a few instructions before it
	// applies the entry to its own DCRT; a snapshot can land in between.
	waitFor(t, 2*time.Second, "announced moves applied to a DCRT", func() bool {
		return c.Stats()["dcrt_moves"] > 0
	})

	// Phase 3: same workload after rebalancing — measured fairness must
	// rise, and every hot category (including moved ones, now served by
	// the receiving cluster's re-placed replicas) stays answerable.
	final := initial
	waitRise := time.Now().Add(25 * time.Second)
	for time.Now().Before(waitRise) && final < 750 {
		driveRound()
		for _, n := range c.Nodes {
			if f := n.Fairness(); f > final {
				final = f
			}
		}
	}
	if final <= initial || final < 750 {
		t.Fatalf("fairness did not rise after rebalancing: initial %d/1000, final %d/1000", initial, final)
	}
	t.Logf("fairness rose %d/1000 -> %d/1000 after %d moves",
		initial, final, c.Stats()["adapt_moves"])
	for _, cat := range hotCats {
		ok := false
		for try := 0; try < 3 && !ok; try++ {
			out, err := origin.Query(cat, 1, 3*time.Second)
			ok = err == nil && out.Done
		}
		if !ok {
			t.Errorf("category %d unanswerable after rebalancing", cat)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(40 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
