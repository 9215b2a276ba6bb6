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
		mv := moveProbe(cc.ID, protocol.DCRTEntry{
			Cluster:     to,
			MoveCounter: n.dcrtEntryForTest(cc.ID).MoveCounter + 1,
		})
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
	back := moveProbe(moved[0], protocol.DCRTEntry{
		Cluster:     assign[moved[0]],
		MoveCounter: n.dcrtEntryForTest(moved[0]).MoveCounter + 1,
	})
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
// holder permanently byteless. They now queue in the node's pull pool,
// and the next workers drain the whole queue.
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
// mirroring the query engine's conservation discipline.
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
		Content:    &ContentConfig{CacheBytes: 64 << 20},
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

// TestPushReplicatePullFailures covers the failure paths of the
// background pull pool, which ships the documents a move made a node
// owe (the case names are kept from when the pool also pulled pushed
// replicas; the "pusher" is the one holder the pull can stream from).
// The holder's bytes rot after its manifest is built, the holder is
// closed mid-pull, or the pull is queued behind a move backlog while
// every worker is busy. Each ends counted with nothing installed and its
// worker slot free — shown by a later move from a good holder landing
// byte-identical.
func TestPushReplicatePullFailures(t *testing.T) {
	const chunk, docBytes = 16 << 10, 2 << 20
	cases := []struct {
		name    string
		counter string
		want    int64
		// fail runs the failing pull of doc from p on b and returns once
		// it has failed or been queued; it reports how many backlog
		// documents ship along with the later good move.
		fail func(t *testing.T, cn *chaos.Net, c *Cluster, b, p *Node, doc catalog.DocID) int64
	}{
		{"rotten pusher", "transfer_move_failures", 1, func(t *testing.T, _ *chaos.Net, _ *Cluster, b, p *Node, doc catalog.DocID) int64 {
			blob := content.SyntheticDoc(doc, docBytes)
			p.store.Put(doc, blob)
			blob[2*chunk+5] ^= 0xFF // chunk 2 now fails its hash
			b.queueMoves([]catalog.DocID{doc})
			waitFor(t, 30*time.Second, "the rotten pull to fail", func() bool { return b.Stats()["transfer_move_failures"] == 1 })
			// p is the only holder, so every re-flood queues it again
			// until maxTriesPerHolder turns are spent; each turn re-asks
			// for the bad chunk until the per-source budget is spent and
			// not once more.
			st := b.Stats()
			if st["transfer_resumes"] != maxTriesPerHolder-1 {
				t.Fatalf("transfer_resumes = %d, want %d", st["transfer_resumes"], maxTriesPerHolder-1)
			}
			if want := int64((maxHashFailsPerSource + 1) * maxTriesPerHolder); st["chunk_hash_fail"] != want {
				t.Fatalf("chunk_hash_fail = %d, want %d", st["chunk_hash_fail"], want)
			}
			return 0
		}},
		{"pusher closed mid-pull", "transfer_move_failures", 1, func(t *testing.T, cn *chaos.Net, c *Cluster, b, p *Node, doc catalog.DocID) int64 {
			// Pace the holder's link so the pull is reliably mid-stream
			// when the holder goes.
			p.store.Register(doc, docBytes)
			cn.SetLinkBoth(p.id, b.id, chaos.Faults{Delay: 20 * time.Millisecond})
			b.queueMoves([]catalog.DocID{doc})
			waitFor(t, 20*time.Second, "pull progress", func() bool { return b.Stats()["transfer_bytes_in"] > 0 })
			if in := b.Stats()["transfer_bytes_in"]; in >= docBytes {
				t.Fatalf("pull finished (%d bytes) before the holder could be closed", in)
			}
			rest := make([]model.NodeID, 0, len(c.Nodes)-1)
			for _, n := range c.Nodes {
				if n != p {
					rest = append(rest, n.id)
				}
			}
			cn.Partition([]model.NodeID{p.id}, rest)
			p.shutdown()
			waitFor(t, 30*time.Second, "the orphaned pull to fail", func() bool { return b.Stats()["transfer_move_failures"] == 1 })
			// Every turn on the dead holder (a straggling manifest can
			// queue it for a second) ends after two silent stalls: one
			// re-grants the window, the second gives up. The re-floods
			// left then find no holder and stall once each.
			st := b.Stats()
			turns := st["transfer_resumes"] + 1
			if want := 2*turns + maxFloods - 1; st["transfer_stalls"] != want {
				t.Fatalf("transfer_stalls = %d over %d turns on the holder, want %d", st["transfer_stalls"], turns, want)
			}
			return 0
		}},
		{"moves queued ahead", "transfer_move_queued", 2, func(t *testing.T, _ *chaos.Net, c *Cluster, b, p *Node, doc catalog.DocID) int64 {
			// Two owed move documents wait in the queue while every slot
			// is taken; the slots then free up with the backlog still
			// queued. The later move must ship behind it, not be lost.
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
			if got := b.Stats()["transfer_move_docs"]; got != 0 {
				t.Fatalf("docs shipped while every pull worker was busy (%d)", got)
			}
			return int64(len(owed))
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := Shape{Documents: 24, Categories: 4, Nodes: 8, Clusters: 2, Seed: 23, DocBytes: docBytes}
			cn := chaos.New(int64(40 + i))
			c := launchOverMemnet(t, sh, cn, memnet.New(), Options{
				CacheBytes: -1,
				Content:    &ContentConfig{chunkSize: chunk},
			})
			fid, doc, _, members := pickRemoteDoc(t, sh)
			// No node holds doc until a case gives it to p.
			for _, n := range c.Nodes {
				n.store.Drop(doc)
			}
			b, p, good := c.Nodes[fid], c.Nodes[members[0]], c.Nodes[members[1]]

			backlog := tc.fail(t, cn, c, b, p, doc)
			st := b.Stats()
			if st[tc.counter] != tc.want {
				t.Fatalf("%s = %d, want %d (%+v)", tc.counter, st[tc.counter], tc.want, st)
			}
			if st["transfer_move_docs"] != 0 || b.store.Has(doc) {
				t.Fatalf("failed pull installed a document (move_docs=%d)", st["transfer_move_docs"])
			}
			waitFor(t, 10*time.Second, "the pull worker to exit", func() bool { return b.pullWorkersForTest() == 0 })

			// The slot is free: a move from a good holder lands, and any
			// queued backlog ships with it.
			good.store.Register(doc, sh.DocBytes)
			b.queueMoves([]catalog.DocID{doc})
			waitFor(t, 30*time.Second, "the later move to install", func() bool { return b.Stats()["transfer_move_docs"] == backlog+1 })
			got, _ := b.store.Bytes(doc)
			if !bytes.Equal(got, content.SyntheticDoc(doc, sh.DocBytes)) {
				t.Fatal("later moved document differs from the synthetic oracle")
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
