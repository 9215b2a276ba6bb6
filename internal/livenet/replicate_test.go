package livenet

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/chaos"
	"p2pshare/internal/content"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// prevClusterLenForTest reads the shedding-cluster fallback map's size
// under the routing lock.
func (n *Node) prevClusterLenForTest() int {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	return len(n.prevCluster)
}

// waitMoveCounter polls until the node's DCRT entry for cat reaches
// counter — the injected move has been applied.
func waitMoveCounter(t *testing.T, n *Node, cat catalog.CategoryID, counter uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.dcrtEntryForTest(cat).MoveCounter < counter {
		if time.Now().After(deadline) {
			t.Fatalf("move for category %d never reached counter %d", cat, counter)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPrevClusterBounded is the regression test for the shedding-cluster
// fallback leak: applyMoveEntry recorded every moved category's previous
// cluster and nothing ever deleted the entries, so a long-lived node
// accumulated one stale record per category ever moved — and fetchSources
// kept routing transfers at clusters that had long since dropped the
// bytes. Records now expire; any landing move prunes the stale remainder.
func TestPrevClusterBounded(t *testing.T) {
	sh := contentShape(31)
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{},
	})
	n := c.Nodes[0]
	n.prevClusterTTLOverride = 50 * time.Millisecond

	inst, assign, _, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Reassign every served category to the next cluster over.
	var moved []catalog.CategoryID
	for _, cc := range inst.Catalog.Cats {
		cl := assign[cc.ID]
		if cl == model.NoCluster {
			continue
		}
		to := (cl + 1) % model.ClusterID(inst.NumClusters)
		if to == cl {
			continue
		}
		mv := wire.Move{Category: cc.ID, From: cl, Entry: protocol.DCRTEntry{
			Cluster:     to,
			MoveCounter: n.dcrtEntryForTest(cc.ID).MoveCounter + 1,
		}}
		n.routeInbound(envelope{From: n.id, Msg: mv})
		moved = append(moved, cc.ID)
	}
	if len(moved) < 2 {
		t.Fatalf("shape yields %d movable categories, need >= 2", len(moved))
	}
	for _, cat := range moved {
		waitMoveCounter(t, n, cat, 1)
	}
	if got := n.prevClusterLenForTest(); got == 0 {
		t.Fatal("no shedding-cluster records after reassignments")
	}

	// Let every record expire, then land one more move: the prune that
	// rides on it must drop all the stale entries, leaving only the
	// fresh one. The pre-fix map kept every record forever.
	time.Sleep(120 * time.Millisecond)
	back := wire.Move{Category: moved[0], From: assign[moved[0]], Entry: protocol.DCRTEntry{
		Cluster:     assign[moved[0]],
		MoveCounter: n.dcrtEntryForTest(moved[0]).MoveCounter + 1,
	}}
	n.routeInbound(envelope{From: n.id, Msg: back})
	waitMoveCounter(t, n, moved[0], 2)
	if got := n.prevClusterLenForTest(); got != 1 {
		t.Fatalf("prevCluster holds %d records after TTL expiry, want 1 (the leak is back)", got)
	}
}

// addPullWorkersForTest moves the pull pool's worker count by delta, so
// a test can occupy every slot without running transfers.
func (n *Node) addPullWorkersForTest(delta int) {
	n.pullMu.Lock()
	n.pullWorkers += delta
	n.pullMu.Unlock()
}

// pullWorkersForTest reads the pull pool's worker count.
func (n *Node) pullWorkersForTest() int {
	n.pullMu.Lock()
	defer n.pullMu.Unlock()
	return n.pullWorkers
}

// TestMovePendingQueueDrains is the regression test for move-shipping
// starvation: with every pull worker busy, a move's owed documents used
// to be counted as skipped and never retried, leaving the move-acquired
// holder permanently byteless. They now queue in the node's one pull
// pool — where a push no worker can take at once is refused instead
// (TestPushReplicatePullFailures) — and the next workers drain the
// whole queue.
func TestMovePendingQueueDrains(t *testing.T) {
	sh := contentShape(32)
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{},
	})
	inst, _, _, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	var owed []catalog.DocID
	for _, doc := range inst.Catalog.Docs {
		if !n.store.Has(doc.ID) {
			owed = append(owed, doc.ID)
		}
		if len(owed) == 4 {
			break
		}
	}
	if len(owed) < 4 {
		t.Fatalf("node 0 holds too much of the catalog: only %d fetchable docs", len(owed))
	}
	first, last := owed[:3], owed[3:]

	// Saturate the pool, then hand over a batch: it must queue, not
	// ship — and not be dropped.
	n.addPullWorkersForTest(maxPullFetchers)
	n.queueMoves(first)
	if got := n.Stats()["transfer_move_queued"]; got != int64(len(first)) {
		t.Fatalf("transfer_move_queued = %d, want %d", got, len(first))
	}
	time.Sleep(50 * time.Millisecond)
	if got := n.Stats()["transfer_move_docs"]; got != 0 {
		t.Fatalf("docs shipped while every pull worker was busy (%d)", got)
	}

	// Free the slots and land the next batch: its worker must drain the
	// queued backlog too, not just its own docs.
	n.addPullWorkersForTest(-maxPullFetchers)
	n.queueMoves(last)
	deadline := time.Now().Add(30 * time.Second)
	for n.Stats()["transfer_move_docs"] < int64(len(owed)) {
		if time.Now().After(deadline) {
			t.Fatalf("shipped %d/%d owed docs; queued batch was dropped",
				n.Stats()["transfer_move_docs"], len(owed))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, d := range owed {
		if !n.store.Has(d) {
			t.Fatalf("doc %d never installed", d)
		}
	}
	b, _ := n.store.Bytes(owed[0])
	if !bytes.Equal(b, content.SyntheticDoc(owed[0], sh.DocBytes)) {
		t.Fatal("shipped doc bytes differ from the synthetic oracle")
	}
	waitFor(t, 10*time.Second, "the drained pool's workers to exit", func() bool { return n.pullWorkersForTest() == 0 })
}

// TestFetchAccountingConservation drives one node through every Fetch
// exit path — remote success, local hit, unknown document, timeout,
// pre-cancelled context, no-route, source exhaustion, and fetch on a
// closed node — and asserts the counters balance exactly:
//
//	fetches_total == fetches_ok + fetch_bad_doc + fetch_closed +
//	                 fetch_cancelled + fetch_timeouts + fetch_no_route +
//	                 fetch_exhausted
//
// mirroring the query engine's conservation discipline, with the
// throughput histogram observing exactly the transfers that moved bytes.
func TestFetchAccountingConservation(t *testing.T) {
	sh := contentShape(34)
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{},
	})
	fid, docOK, catOK, _ := pickRemoteDoc(t, sh)
	n := c.Nodes[fid]
	inst, assign, _, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Remote success.
	if _, err := n.Fetch(ctx, docOK); err != nil {
		t.Fatalf("remote fetch: %v", err)
	}
	// Local hit: any doc this node holds from birth.
	var held catalog.DocID = -1
	for _, doc := range inst.Catalog.Docs {
		if n.store.Has(doc.ID) {
			held = doc.ID
			break
		}
	}
	if held < 0 {
		t.Fatal("node holds nothing")
	}
	if _, err := n.Fetch(ctx, held); err != nil {
		t.Fatalf("local fetch: %v", err)
	}
	// Unknown document.
	if _, err := n.Fetch(ctx, catalog.DocID(1<<30)); err == nil {
		t.Fatal("unknown doc fetch succeeded")
	}
	// Pre-cancelled context.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := n.Fetch(dead, docOK); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled fetch returned %v, want context.Canceled", err)
	}

	// A document nobody holds (dropped everywhere): discovery floods go
	// unanswered. With a short deadline that is a timeout; with a long
	// one the flood budget runs out and the fetch is exhausted.
	var gone catalog.DocID = -1
	for _, doc := range inst.Catalog.Docs {
		if doc.ID != docOK && assign[doc.Categories[0]] != model.NoCluster && !n.store.Has(doc.ID) {
			gone = doc.ID
			break
		}
	}
	if gone < 0 {
		t.Fatal("no droppable doc")
	}
	for _, m := range c.Nodes {
		m.store.Drop(gone)
	}
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	if _, err := n.Fetch(shortCtx, gone); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered fetch returned %v, want ErrTimeout", err)
	}
	shortCancel()
	if _, err := n.Fetch(ctx, gone); !errors.Is(err, ErrNoContent) {
		t.Fatalf("exhausted fetch returned %v, want ErrNoContent", err)
	}

	// No route: forget the category's cluster; with no fallback record
	// the source snapshot is empty.
	n.routeMu.Lock()
	delete(n.dcrt, catOK)
	n.routeMu.Unlock()
	if _, err := n.Fetch(ctx, docOK); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("routeless fetch returned %v, want ErrNoRoute", err)
	}

	// Closed node.
	n.Close()
	if _, err := n.Fetch(ctx, docOK); !errors.Is(err, ErrClosed) {
		t.Fatalf("fetch on closed node returned %v, want ErrClosed", err)
	}

	s := n.Stats()
	exits := s["fetches_ok"] + s["fetch_bad_doc"] + s["fetch_closed"] +
		s["fetch_cancelled"] + s["fetch_timeouts"] + s["fetch_no_route"] +
		s["fetch_exhausted"]
	if s["fetches_total"] != exits {
		t.Errorf("conservation broken: fetches_total=%d but exits sum to %d (%+v)",
			s["fetches_total"], exits, s)
	}
	// Spot-check each path actually fired — a conservation equation over
	// all-zero counters proves nothing.
	for _, k := range []string{"fetches_ok", "fetch_bad_doc", "fetch_closed",
		"fetch_cancelled", "fetch_timeouts", "fetch_no_route", "fetch_exhausted",
		"fetch_local_hits"} {
		if s[k] == 0 {
			t.Errorf("%s never incremented — test lost coverage of that exit path", k)
		}
	}
	// The histogram saw exactly the fetches that moved bytes: the one
	// remote success. Local hits and failures observe nothing.
	if got := n.TransferThroughput().Count(); got != 1 {
		t.Errorf("throughput histogram observed %d transfers, want 1", got)
	}
}

// TestCachedFetchBecomesReplica pins the requester side of demand-driven
// replication: under the admission threshold a fetch stays a plain
// fetch, at the threshold the verified bytes are installed as a cached
// replica, the next fetch is a local hit that moves zero network bytes,
// and the node now answers manifest requests for the document — a real
// replica holder grown from demand.
func TestCachedFetchBecomesReplica(t *testing.T) {
	sh := contentShape(35)
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{CacheBytes: 64 << 20, CacheAdmitHits: 2},
	})
	fid, doc, _, _ := pickRemoteDoc(t, sh)
	n := c.Nodes[fid]
	want := content.SyntheticDoc(doc, sh.DocBytes)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// First fetch: one observation of demand — under the threshold, so
	// no cache install.
	got, err := n.Fetch(ctx, doc)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first fetch: err=%v equal=%v", err, bytes.Equal(got, want))
	}
	st := n.Stats()
	if st["content_cache_installs"] != 0 || n.store.Has(doc) {
		t.Fatalf("single-shot fetch was cached (installs=%d, has=%v) — admission threshold ignored",
			st["content_cache_installs"], n.store.Has(doc))
	}
	if st["transfer_bytes_in"] != sh.DocBytes {
		t.Fatalf("transfer_bytes_in = %d after first fetch, want %d", st["transfer_bytes_in"], sh.DocBytes)
	}

	// Second fetch clears the threshold: still a remote fetch, but the
	// bytes earn a cache slot on completion.
	if got, err = n.Fetch(ctx, doc); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("second fetch: err=%v equal=%v", err, bytes.Equal(got, want))
	}
	st = n.Stats()
	if st["content_cache_installs"] != 1 || !n.store.Has(doc) {
		t.Fatalf("threshold fetch not cached (installs=%d, has=%v)",
			st["content_cache_installs"], n.store.Has(doc))
	}
	if st["content_cache_docs"] != 1 || st["content_cache_bytes"] != sh.DocBytes {
		t.Fatalf("cache gauges: docs=%d bytes=%d, want 1/%d",
			st["content_cache_docs"], st["content_cache_bytes"], sh.DocBytes)
	}

	// Third fetch: local hit, zero new network bytes.
	before := st["transfer_bytes_in"]
	if got, err = n.Fetch(ctx, doc); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cached fetch: err=%v equal=%v", err, bytes.Equal(got, want))
	}
	st = n.Stats()
	if st["fetch_local_hits"] != 1 {
		t.Fatalf("fetch_local_hits = %d, want 1", st["fetch_local_hits"])
	}
	if st["transfer_bytes_in"] != before {
		t.Fatalf("cached fetch moved %d network bytes, want 0", st["transfer_bytes_in"]-before)
	}

	// The cached copy answers the crowd: a manifest request against this
	// node is now served, not forwarded.
	n.serveManifestReq(n.id, wire.ManifestReq{Doc: doc, Xfer: 99, Origin: n.id, TTL: discoverTTL})
	if got := n.Stats()["transfer_manifests_served"]; got != 1 {
		t.Fatalf("cached holder served %d manifests, want 1", got)
	}
}

// TestPushReplicateInstallsCachedCopy pins the holder side: a leader's
// Lite hint (wire.LeaderLoad naming under-loaded members) makes the
// overloaded holder push its hottest document's manifest, and the target
// pulls the chunks over the wire and installs a verified cached replica.
func TestPushReplicateInstallsCachedCopy(t *testing.T) {
	sh := contentShape(36)
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{CacheBytes: 64 << 20, CacheAdmitHits: 1},
	})
	// Adaptation on but with an epoch too long to fire: the hint below is
	// injected, not measured.
	c.EnableAdaptation(AdaptConfig{Interval: time.Hour})

	fid, doc, cat, members := pickRemoteDoc(t, sh)
	inst, assign, _, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	cl := assign[cat]
	// The hint is only honored when it comes from the believed cluster
	// leader: the most capable member (ties to the lowest id).
	leader := model.NodeID(-1)
	var bestU float64
	for _, id := range members {
		u := inst.Nodes[id].Units
		if leader == -1 || u > bestU || (u == bestU && id < leader) {
			leader, bestU = id, u
		}
	}
	holder := members[0]
	if holder == leader {
		holder = members[1]
	}
	h, b := c.Nodes[holder], c.Nodes[fid]

	// Seed the holder's last serve window (written before the control
	// loop reads it via the injected envelope, so the handoff is ordered).
	h.lastServed = map[catalog.DocID]int64{doc: 50}
	hint := wire.LeaderLoad{Epoch: 1, Cluster: cl, Lite: []model.NodeID{fid}}
	deadline := time.Now().Add(30 * time.Second)
	for b.Stats()["replicate_installs"] == 0 {
		h.routeInbound(envelope{From: leader, Msg: hint})
		if time.Now().After(deadline) {
			t.Fatalf("push never installed a replica (holder %+v, target %+v)",
				h.Stats(), b.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h.Stats()["replicate_pushes"] == 0 {
		t.Fatal("holder pushed nothing")
	}
	if !b.store.Has(doc) {
		t.Fatal("target does not hold the pushed doc")
	}
	got, _ := b.store.Bytes(doc)
	if !bytes.Equal(got, content.SyntheticDoc(doc, sh.DocBytes)) {
		t.Fatal("pushed replica bytes differ from the synthetic oracle")
	}
	if b.Stats()["content_cache_docs"] != 1 {
		t.Fatalf("target cache gauges: %+v", b.Stats())
	}
	// The replica is a real holder now: it answers manifest requests.
	b.serveManifestReq(b.id, wire.ManifestReq{Doc: doc, Xfer: 99, Origin: b.id, TTL: discoverTTL})
	if b.Stats()["transfer_manifests_served"] == 0 {
		t.Fatal("pushed replica does not serve manifests")
	}
}

// TestPushReplicatePullFailures covers the failure paths of a pushed
// replica's pull: the pusher's bytes rot after its manifest is built,
// the pusher is closed mid-pull, the push finds every pull worker busy,
// and the push finds move downloads queued ahead of it. Each must end
// counted (replicate_pull_failures or
// replicate_drops) with nothing installed and its worker slot free —
// shown by a later push from a good holder installing.
func TestPushReplicatePullFailures(t *testing.T) {
	const chunk, docBytes = 16 << 10, 2 << 20
	cases := []struct {
		name    string
		counter string
		// fail delivers the failing push from p to b and waits until it
		// has been refused or has failed.
		fail func(t *testing.T, cn *chaos.Net, c *Cluster, b, p *Node, doc catalog.DocID)
	}{
		{"rotten pusher", "replicate_pull_failures", func(t *testing.T, _ *chaos.Net, _ *Cluster, b, p *Node, doc catalog.DocID) {
			blob := content.SyntheticDoc(doc, docBytes)
			man := p.store.Put(doc, blob)
			blob[2*chunk+5] ^= 0xFF // chunk 2 now fails its hash
			b.handleReplicate(p.id, replicateOf(man))
			waitFor(t, 30*time.Second, "the rotten pull to fail", func() bool { return b.Stats()["replicate_pull_failures"] == 1 })
			// The pull re-asks for the bad chunk until the per-source
			// budget is spent, then gives up: no discovery, no failover.
			if got := b.Stats()["chunk_hash_fail"]; got != maxHashFailsPerSource+1 {
				t.Fatalf("chunk_hash_fail = %d, want %d", got, maxHashFailsPerSource+1)
			}
		}},
		{"pusher closed mid-pull", "replicate_pull_failures", func(t *testing.T, cn *chaos.Net, c *Cluster, b, p *Node, doc catalog.DocID) {
			// Pace the pusher's link so the pull is reliably mid-stream
			// when the pusher goes.
			cn.SetLinkBoth(p.id, b.id, chaos.Faults{Delay: 20 * time.Millisecond})
			man, _ := p.store.Manifest(doc)
			b.handleReplicate(p.id, replicateOf(man))
			waitFor(t, 20*time.Second, "pull progress", func() bool { return b.Stats()["transfer_bytes_in"] > 0 })
			if in := b.Stats()["transfer_bytes_in"]; in >= man.Size {
				t.Fatalf("pull finished (%d bytes) before the pusher could be closed", in)
			}
			rest := make([]model.NodeID, 0, len(c.Nodes)-1)
			for _, n := range c.Nodes {
				if n != p {
					rest = append(rest, n.id)
				}
			}
			cn.Partition([]model.NodeID{p.id}, rest)
			p.shutdown()
			waitFor(t, 30*time.Second, "the orphaned pull to fail", func() bool { return b.Stats()["replicate_pull_failures"] == 1 })
			// One silent stall re-grants the window, the second gives up.
			if got := b.Stats()["transfer_stalls"]; got < 2 {
				t.Fatalf("transfer_stalls = %d, want >= 2", got)
			}
		}},
		{"every worker busy", "replicate_drops", func(t *testing.T, _ *chaos.Net, _ *Cluster, b, p *Node, doc catalog.DocID) {
			man, _ := p.store.Manifest(doc)
			b.addPullWorkersForTest(maxPullFetchers)
			b.handleReplicate(p.id, replicateOf(man))
			b.addPullWorkersForTest(-maxPullFetchers)
		}},
		{"moves queued ahead", "replicate_drops", func(t *testing.T, _ *chaos.Net, c *Cluster, b, p *Node, doc catalog.DocID) {
			// Two owed move documents wait in the queue while every slot
			// is taken; the slots then free up with the backlog still
			// queued. The push must not wait behind it.
			var owed []catalog.DocID
			for _, d := range b.inst.Catalog.Docs {
				if d.ID != doc && !b.store.Has(d.ID) && heldElsewhere(c, b, d.ID) {
					owed = append(owed, d.ID)
				}
				if len(owed) == 2 {
					break
				}
			}
			if len(owed) < 2 {
				t.Fatalf("only %d move documents to queue", len(owed))
			}
			b.addPullWorkersForTest(maxPullFetchers)
			b.queueMoves(owed)
			b.addPullWorkersForTest(-maxPullFetchers)
			man, _ := p.store.Manifest(doc)
			b.handleReplicate(p.id, replicateOf(man))
			if got := b.Stats()["replicate_drops"]; got != 1 {
				t.Fatalf("push behind a move backlog: replicate_drops = %d, want 1", got)
			}
			// The backlog still ships once workers take it.
			b.queueMoves(nil)
			waitFor(t, 30*time.Second, "the queued moves to ship", func() bool { return b.Stats()["transfer_move_docs"] == 2 })
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := Shape{Documents: 24, Categories: 4, Nodes: 8, Clusters: 2, Seed: 23, DocBytes: docBytes}
			cn := chaos.New(int64(40 + i))
			c := launchOverMemnet(t, sh, cn, memnet.New(), Options{
				CacheBytes: -1,
				Content:    &ContentConfig{ChunkSize: chunk, CacheBytes: 64 << 20, CacheAdmitHits: 1},
			})
			fid, doc, _, members := pickRemoteDoc(t, sh)
			for _, m := range members {
				c.Nodes[m].store.Register(doc, sh.DocBytes)
			}
			b, p, good := c.Nodes[fid], c.Nodes[members[0]], c.Nodes[members[1]]

			tc.fail(t, cn, c, b, p, doc)
			st := b.Stats()
			if st[tc.counter] != 1 {
				t.Fatalf("%s = %d, want 1 (%+v)", tc.counter, st[tc.counter], st)
			}
			if st["replicate_installs"] != 0 || b.store.Has(doc) {
				t.Fatalf("failed push installed a replica (installs=%d)", st["replicate_installs"])
			}
			waitFor(t, 10*time.Second, "the pull worker to exit", func() bool { return b.pullWorkersForTest() == 0 })

			// The slot is free: a push from a good holder installs.
			man, _ := good.store.Manifest(doc)
			b.handleReplicate(good.id, replicateOf(man))
			waitFor(t, 30*time.Second, "the later push to install", func() bool { return b.Stats()["replicate_installs"] == 1 })
			got, _ := b.store.Bytes(doc)
			if !bytes.Equal(got, content.SyntheticDoc(doc, sh.DocBytes)) {
				t.Fatal("later pushed replica differs from the synthetic oracle")
			}
		})
	}
}

// heldElsewhere reports whether a node of c other than b holds doc.
func heldElsewhere(c *Cluster, b *Node, doc catalog.DocID) bool {
	for _, n := range c.Nodes {
		if n != b && n.store.Has(doc) {
			return true
		}
	}
	return false
}

// replicateOf is the push frame a holder sends for m.
func replicateOf(m *content.Manifest) wire.Replicate {
	return wire.Replicate{Doc: m.Doc, Size: m.Size, ChunkSize: int64(m.ChunkSize), Hashes: m.Hashes}
}
