package livenet

import (
	"bytes"
	"context"
	"slices"
	"sort"
	"sync"
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

// contentShape is the small standard geometry the transfer tests share:
// 256 KB documents so a fetch spans several chunks without dominating
// test wall clock.
func contentShape(seed int64) Shape {
	return Shape{Documents: 48, Categories: 6, Nodes: 8, Clusters: 2, Seed: seed, DocBytes: 256 << 10}
}

// pickRemoteDoc returns a (fetcher, document, category, serving-cluster
// members) tuple where the fetcher is NOT a member of the serving
// cluster — nodes donate capacity to several clusters in this model, so
// the pair must be searched for, not assumed.
func pickRemoteDoc(t *testing.T, sh Shape) (model.NodeID, catalog.DocID, catalog.CategoryID, []model.NodeID) {
	t.Helper()
	d, err := sh.deploy()
	if err != nil {
		t.Fatal(err)
	}
	inst, assign, mem := d.Inst, d.Assign, d.Mem
	for _, doc := range inst.Catalog.Docs {
		cat := doc.Categories[0]
		cl := assign[cat]
		if cl == model.NoCluster {
			continue
		}
		members := mem.NodesOf(cl)
		if len(members) < 2 {
			continue
		}
		for k := range inst.Nodes {
			fetcher := inst.Nodes[k].ID
			mine := false
			for _, m := range members {
				if m == fetcher {
					mine = true
					break
				}
			}
			if !mine {
				return fetcher, doc.ID, cat, members
			}
		}
	}
	t.Fatal("no (fetcher, doc) pair with the fetcher outside the serving cluster")
	return 0, 0, 0, nil
}

// TestFetchRemoteAndLocal is the data plane's basic contract: a fetch
// from a non-holder streams the document over the wire, verified
// against the manifest and byte-identical to the synthetic oracle; a
// fetch on a holder is a local hit that never touches the network.
func TestFetchRemoteAndLocal(t *testing.T) {
	sh := contentShape(21)
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{},
	})
	fid, doc, _, members := pickRemoteDoc(t, sh)
	fetcher := c.Nodes[fid]
	want := content.SyntheticDoc(doc, sh.DocBytes)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := fetcher.Fetch(ctx, doc)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fetched bytes differ from the synthetic oracle")
	}
	st := fetcher.Stats()
	if st["transfer_bytes_in"] != sh.DocBytes {
		t.Fatalf("transfer_bytes_in = %d, want %d", st["transfer_bytes_in"], sh.DocBytes)
	}
	if st["fetches_ok"] != 1 || st["fetch_local_hits"] != 0 {
		t.Fatalf("fetch accounting: ok=%d local=%d", st["fetches_ok"], st["fetch_local_hits"])
	}
	var out int64
	for _, m := range members {
		out += c.Nodes[m].Stats()["transfer_bytes_out"]
	}
	if out < sh.DocBytes {
		t.Fatalf("holders served %d bytes, want >= %d", out, sh.DocBytes)
	}

	// A holder's fetch is a local hit: same bytes, zero new wire bytes.
	holder := c.Nodes[members[0]]
	before := holder.Stats()["transfer_bytes_in"]
	got, err = holder.Fetch(ctx, doc)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("local fetch: err=%v equal=%v", err, bytes.Equal(got, want))
	}
	st = holder.Stats()
	if st["fetch_local_hits"] != 1 || st["transfer_bytes_in"] != before {
		t.Fatalf("local hit accounting: hits=%d bytes_in=%d (was %d)",
			st["fetch_local_hits"], st["transfer_bytes_in"], before)
	}
}

// TestFetchSurvivesCorruptSource: the fastest source serves one
// persistently corrupt chunk (bit rot after its manifest was built).
// The fetcher must fail the hash check (counted, never panicking or
// wedging), give up on the liar after exactly maxHashFailsPerSource+1
// corrupt chunks, and finish byte-identical from the next holder —
// keeping every verified chunk. Also pins stray-frame handling: content frames for unknown
// transfer ids are dropped and counted, not crashed on.
func TestFetchSurvivesCorruptSource(t *testing.T) {
	sh := contentShape(22)
	cn := chaos.New(22)
	c := launchOverMemnet(t, sh, cn, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{chunkSize: 32 << 10},
	})
	fid, doc, cat, _ := pickRemoteDoc(t, sh)
	fetcher := c.Nodes[fid]
	want := content.SyntheticDoc(doc, sh.DocBytes)

	sources := fetcher.fetchSources(cat)
	if len(sources) < 2 {
		t.Fatalf("need >= 2 sources, have %v", sources)
	}
	// Discovery streams from whichever holder answers first, so the liar
	// is made the fastest: every other source's link to the fetcher is
	// delayed. The liar's blob rots AFTER its manifest is computed; every
	// other source holds good bytes.
	liar := c.Nodes[sources[0]]
	for _, s := range sources[1:] {
		cn.SetLinkBoth(s, fid, chaos.Faults{Delay: 10 * time.Millisecond})
	}
	blob := append([]byte(nil), want...)
	liar.store.Put(doc, blob)
	if _, ok := liar.store.Manifest(doc); !ok {
		t.Fatal("manifest not cached")
	}
	blob[2*(32<<10)+5] ^= 0xFF // chunk 2 now fails its hash
	for _, s := range sources[1:] {
		c.Nodes[s].store.Put(doc, append([]byte(nil), want...))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := fetcher.Fetch(ctx, doc)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fetched bytes differ from oracle despite corrupt source")
	}
	st := fetcher.Stats()
	if st["transfer_resumes"] == 0 {
		t.Fatal("failover from the corrupt source did not count as a resume")
	}
	// The liar may be streamed from twice (maxTriesPerHolder): a re-flood
	// can queue it again ahead of the slower good holders. Every turn it
	// gets ends in a resume — the good holder completes on its first — and
	// each turn costs exactly the per-source budget, re-asking for the bad
	// chunk until it is spent and not once more.
	if want := (maxHashFailsPerSource + 1) * st["transfer_resumes"]; st["chunk_hash_fail"] != want {
		t.Fatalf("chunk_hash_fail = %d over %d turns on the liar, want %d",
			st["chunk_hash_fail"], st["transfer_resumes"], want)
	}
	if st["fetches_ok"] != 1 {
		t.Fatalf("fetches_ok = %d", st["fetches_ok"])
	}

	// Stray and corrupt frames for unknown transfers must be inert.
	for _, msg := range []any{
		wire_Chunk(doc, 0xdead, 0, []byte("garbage")),
		wire_Manifest(doc, 0xbeef),
	} {
		fetcher.routeInbound(envelope{From: sources[0], Msg: msg})
	}
	if fetcher.Stats()["transfer_stray_frames"] < 2 {
		t.Fatal("stray content frames not counted")
	}
	// The node still serves queries after all of the above.
	if _, err := fetcher.Query(cat, 1, 5*time.Second); err != nil {
		t.Fatalf("query after corrupt transfer: %v", err)
	}
}

// TestFetchResumesAfterSourceDeath is the chaos-seeded regression the
// data plane exists to survive: mid-stream, the serving peer is
// partitioned away AND killed; the fetcher must drop it after two silent
// stalls (the first re-grants the window), fail over to another replica
// holder and resume from the last verified chunk — the final byte count
// proves no verified chunk was fetched twice — and the result is
// byte-identical, pinned against the manifest root hash.
func TestFetchResumesAfterSourceDeath(t *testing.T) {
	sh := Shape{Documents: 24, Categories: 4, Nodes: 8, Clusters: 2, Seed: 23, DocBytes: 2 << 20}
	cn := chaos.New(23)
	c := launchOverMemnet(t, sh, cn, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{chunkSize: 16 << 10}, // 128 chunks
	})
	fid, doc, cat, members := pickRemoteDoc(t, sh)
	fetcher := c.Nodes[fid]
	// Every serving-cluster member holds the document, so a second
	// holder is always there to resume from.
	for _, m := range members {
		c.Nodes[m].store.Register(doc, sh.DocBytes)
	}
	root := content.BuildManifest(doc, content.SyntheticDoc(doc, sh.DocBytes), 16<<10).Root()

	sources := fetcher.fetchSources(cat)
	if len(sources) < 2 {
		t.Fatalf("need >= 2 sources, have %v", sources)
	}
	// Pace every source link so the transfer is reliably mid-stream when
	// the kill lands. Discovery picks the streamer (first holder to
	// answer), so the victim is identified from the byte counters once
	// streaming starts, not chosen up front.
	for _, s := range sources {
		cn.SetLinkBoth(s, fid, chaos.Faults{Delay: 5 * time.Millisecond})
	}

	type outcome struct {
		data []byte
		err  error
	}
	res := make(chan outcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		data, err := fetcher.Fetch(ctx, doc)
		res <- outcome{data, err}
	}()

	// Wait for partial progress, then partition the victim from the
	// whole deployment and kill it.
	deadline := time.Now().Add(20 * time.Second)
	for {
		in := fetcher.Stats()["transfer_bytes_in"]
		if in >= sh.DocBytes/8 && in <= sh.DocBytes/2 {
			break
		}
		if in > sh.DocBytes/2 {
			t.Log("transfer outran the kill window; killing anyway")
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no transfer progress to interrupt (bytes_in=%d)", in)
		}
		time.Sleep(200 * time.Microsecond)
	}
	killedAt := fetcher.Stats()["transfer_bytes_in"]
	// The active streamer is the source with the most bytes served; the
	// others have answered at most a manifest.
	victim := sources[0]
	var most int64 = -1
	for _, s := range sources {
		if out := c.Nodes[s].Stats()["transfer_bytes_out"]; out > most {
			most, victim = out, s
		}
	}
	rest := make([]model.NodeID, 0, len(c.Nodes)-1)
	for _, n := range c.Nodes {
		if n.id != victim {
			rest = append(rest, n.id)
		}
	}
	cn.Partition([]model.NodeID{victim}, rest)
	c.Nodes[victim].shutdown()

	out := <-res
	if out.err != nil {
		t.Fatalf("fetch after source death: %v", out.err)
	}
	if got := content.BuildManifest(doc, out.data, 16<<10).Root(); got != root {
		t.Fatal("resumed fetch is not byte-identical (manifest root differs)")
	}
	st := fetcher.Stats()
	if killedAt < sh.DocBytes && st["transfer_resumes"] == 0 {
		t.Fatalf("no resume counted (killed at %d of %d bytes)", killedAt, sh.DocBytes)
	}
	if killedAt < sh.DocBytes && st["transfer_stalls"] != 2 {
		t.Fatalf("transfer_stalls = %d, want 2: one re-grant, then the dead source is dropped", st["transfer_stalls"])
	}
	// Every verified chunk was fetched exactly once: resume continued
	// from progress instead of restarting.
	if st["transfer_bytes_in"] != sh.DocBytes {
		t.Fatalf("transfer_bytes_in = %d, want exactly %d (verified chunks must not be refetched)",
			st["transfer_bytes_in"], sh.DocBytes)
	}
}

// TestMoveShipsBytes pins the rebalancing data plane: when a §6.1 move
// reassigns a category, the gaining members don't just flip metadata —
// they pull their placement share's actual bytes from the shedding
// cluster (which fetchSources keeps as a fallback) and install them as
// real blobs. A move is not a Fetch: with caching on and a one-hit
// admission threshold, the gaining node still counts no fetch, admits
// nothing to its cache, and holds the shipped document as a base entry.
func TestMoveShipsBytes(t *testing.T) {
	sh := contentShape(24)
	// Adaptation enabled with an epoch too long to ever fire: the move
	// below is injected, not measured, so the test is deterministic.
	c := launchOverMemnet(t, sh, nil, memnet.New(), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{CacheBytes: 64 << 20, cacheAdmitHits: 1},
		Membership: true,
		Adaptation: &AdaptConfig{Interval: time.Hour},
	})

	d, err := sh.deploy()
	if err != nil {
		t.Fatal(err)
	}
	inst, assign, mem := d.Inst, d.Assign, d.Mem
	// Pick a category and a destination cluster it is not served by.
	var cat catalog.CategoryID = -1
	var from, to model.ClusterID
	for _, cc := range inst.Catalog.Cats {
		if cl := assign[cc.ID]; cl != model.NoCluster {
			cat, from = cc.ID, cl
			to = (cl + 1) % model.ClusterID(inst.NumClusters)
			break
		}
	}
	if cat < 0 || from == to {
		t.Fatalf("no movable category (cat=%d from=%d to=%d)", cat, from, to)
	}
	// Nodes donate capacity to several clusters, so a member of the
	// gaining cluster may already hold the docs as a shedding-cluster
	// member; the shipping assertion only holds for nodes unique to the
	// gaining side.
	var gaining []model.NodeID
	for _, g := range mem.NodesOf(to) {
		also := false
		for _, s := range mem.NodesOf(from) {
			if s == g {
				also = true
				break
			}
		}
		if !also {
			gaining = append(gaining, g)
		}
	}
	if len(gaining) == 0 {
		t.Fatal("no node unique to the destination cluster")
	}
	docs := inst.Catalog.Cats[cat].Docs
	if len(docs) == 0 {
		t.Fatal("category has no documents")
	}
	for _, g := range gaining {
		for _, d := range docs {
			if c.Nodes[g].store.Has(d) {
				t.Fatalf("node %d already holds doc %d before the move", g, d)
			}
		}
	}

	move := moveProbe(cat, protocol.DCRTEntry{
		Cluster:     to,
		MoveCounter: c.Nodes[gaining[0]].dcrtEntryForTest(cat).MoveCounter + 1,
	})
	// Every member of the receiving cluster hears the move (the share
	// placement spans all of them; which ones owe docs is its choice).
	receivers := mem.NodesOf(to)
	for _, g := range receivers {
		c.Nodes[g].routeInbound(envelope{From: c.Nodes[g].id, Msg: move})
	}

	// Some receiving member must acquire real bytes over the network —
	// transfer_move_docs only advances on a completed, installed pull.
	deadline := time.Now().Add(30 * time.Second)
	for {
		shipped := int64(0)
		for _, g := range receivers {
			shipped += c.Nodes[g].Stats()["transfer_move_docs"]
		}
		if shipped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no move transfer completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Find one shipped doc and verify its bytes against the oracle.
	verified := false
	for _, g := range receivers {
		st := c.Nodes[g].Stats()
		if st["transfer_move_docs"] == 0 {
			continue
		}
		if st["fetches_total"] != 0 || st["content_cache_installs"] != 0 || c.Nodes[g].store.CachedLen() != 0 {
			t.Fatalf("node %d shipped a move through Fetch: fetches_total=%d content_cache_installs=%d cached docs=%d",
				g, st["fetches_total"], st["content_cache_installs"], c.Nodes[g].store.CachedLen())
		}
		for _, d := range docs {
			if !c.Nodes[g].store.Has(d) {
				continue
			}
			b, _ := c.Nodes[g].store.Bytes(d)
			if !bytes.Equal(b, content.SyntheticDoc(d, sh.DocBytes)) {
				t.Fatalf("node %d holds wrong bytes for shipped doc %d", g, d)
			}
			verified = true
		}
	}
	if !verified {
		t.Fatal("move counters advanced but no shipping node holds a doc")
	}
	// And the bytes crossed the wire from the shedding cluster.
	var out int64
	for _, m := range mem.NodesOf(from) {
		out += c.Nodes[m].Stats()["transfer_bytes_out"]
	}
	if out == 0 {
		t.Fatal("shedding cluster never served transfer bytes")
	}
}

// TestBulkFetchUnderQueryLoad is the PR's acceptance bar at cluster
// scale: nodes publish real (synthetic-backed, manifest-verified)
// document bytes, 100+ concurrent fetches all complete verified, and
// the concurrent query p95 stays within 3x of the no-bulk baseline —
// the transport's priority lanes keeping the control plane responsive
// under bulk load.
func TestBulkFetchUnderQueryLoad(t *testing.T) {
	nodes := 48
	sh := Shape{Documents: 96, Categories: 12, Nodes: nodes, Clusters: 4, Seed: 25, DocBytes: 256 << 10}
	c := launchOverMemnet(t, sh, nil, memnet.NewSized(512<<10), Options{
		CacheBytes: -1,
		Content:    &ContentConfig{},
	})
	cats := c.inst.Catalog.Cats

	p95 := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[(len(d)*95)/100]
	}
	query := func(i int) (time.Duration, error) {
		origin := c.Nodes[(i*31)%nodes]
		cat := cats[(i*7)%len(cats)].ID
		t0 := time.Now()
		_, err := origin.Query(cat, 1, 10*time.Second)
		return time.Since(t0), err
	}

	// Phase 1: no-bulk query baseline.
	const baselineQueries = 60
	base := make([]time.Duration, 0, baselineQueries)
	for i := 0; i < baselineQueries; i++ {
		d, err := query(i)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		base = append(base, d)
	}
	baseP95 := p95(base)

	// Phase 2: 120 concurrent fetches with queries riding alongside.
	const fetchers, perFetcher = 40, 3
	var wg sync.WaitGroup
	fetchErrs := make(chan error, fetchers*perFetcher)
	for g := 0; g < fetchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perFetcher; k++ {
				node := c.Nodes[(g*13+k*29)%nodes]
				doc := c.inst.Catalog.Docs[(g*perFetcher+k)%len(c.inst.Catalog.Docs)].ID
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				data, err := node.Fetch(ctx, doc)
				cancel()
				if err != nil {
					fetchErrs <- err
					continue
				}
				if !bytes.Equal(data, content.SyntheticDoc(doc, sh.DocBytes)) {
					fetchErrs <- content.ErrHashMismatch
					continue
				}
				fetchErrs <- nil
			}
		}(g)
	}
	loadedMu := sync.Mutex{}
	loaded := make([]time.Duration, 0, 120)
	var qwg sync.WaitGroup
	qErrs := make(chan error, 3*40)
	for w := 0; w < 3; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			for i := 0; i < 40; i++ {
				d, err := query(w*1000 + i)
				qErrs <- err
				loadedMu.Lock()
				loaded = append(loaded, d)
				loadedMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	qwg.Wait()
	close(fetchErrs)
	close(qErrs)

	fetched, failed := 0, 0
	for err := range fetchErrs {
		if err != nil {
			failed++
			t.Errorf("fetch failed: %v", err)
		} else {
			fetched++
		}
	}
	if fetched < 100 {
		t.Fatalf("only %d verified fetches completed (want >= 100, %d failed)", fetched, failed)
	}
	qFailed := 0
	for err := range qErrs {
		if err != nil {
			qFailed++
		}
	}
	if qFailed > 6 { // 5% of 120
		t.Fatalf("%d queries failed under bulk load", qFailed)
	}
	loadedP95 := p95(loaded)

	// The priority split's promise: bulk must not starve the protocol.
	// Floor the baseline at 50ms: the idle baseline is sub-millisecond,
	// and on a small host 120 concurrent hash-verified transfers cost
	// real CPU, so tail latency has a contention floor that has nothing
	// to do with queueing. Without the priority lanes, queries stuck
	// behind megabytes of bulk frames fail by seconds, not milliseconds
	// — the bound still catches the regression it exists for.
	floor := baseP95
	if floor < 50*time.Millisecond {
		floor = 50 * time.Millisecond
	}
	t.Logf("query p95: baseline %v, under bulk %v (bound %v); %d fetches verified",
		baseP95, loadedP95, 3*floor, fetched)
	if raceEnabled {
		// The race detector multiplies CPU cost ~10x; the latency bound
		// is only meaningful without it. Correctness (every fetch
		// verified, queries succeeding) was still asserted above.
		t.Log("race detector enabled; skipping the latency-bound assertion")
		return
	}
	if loadedP95 > 3*floor {
		t.Fatalf("query p95 under bulk = %v, exceeds 3x baseline bound %v", loadedP95, 3*floor)
	}
}

// dcrtEntryForTest reads a node's DCRT entry under the routing lock.
func (n *Node) dcrtEntryForTest(cat catalog.CategoryID) protocol.DCRTEntry {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	return n.dcrtRow(cat)
}

// dcrtRow is a node's DCRT row for cat, the zero row when it has none.
// Caller holds routeMu.
func (n *Node) dcrtRow(cat catalog.CategoryID) protocol.DCRTEntry {
	e, _ := n.dcrt.Get(cat)
	return e
}

// forgetDCRTRow rebuilds n's DCRT without cat's row: a category no
// route knows. Caller holds routeMu.Lock.
func (n *Node) forgetDCRTRow(cat catalog.CategoryID) {
	var dcrt protocol.DCRT
	n.dcrt.Range(func(c catalog.CategoryID, e protocol.DCRTEntry) bool {
		if c != cat {
			dcrt.Set(c, e)
		}
		return true
	})
	n.dcrt = dcrt
}

// Small constructors keeping the stray-frame table readable.
func wire_Chunk(doc catalog.DocID, xfer uint64, idx int64, data []byte) wire.Chunk {
	return wire.Chunk{Doc: doc, Xfer: xfer, Index: idx, Data: data}
}
func wire_Manifest(doc catalog.DocID, xfer uint64) wire.Manifest {
	return wire.Manifest{Doc: doc, Xfer: xfer, Missing: true}
}

// TestFetchBothWaysOverShallowRing: two nodes fetch from each other at
// once, in both directions, over fabric rings about two chunks deep.
// The fetching goroutines post their manifest requests and chunk
// grants, which may wait on a full ring; the readers only queue their
// replies, so no reader waits on a link its peer is blocked writing on:
// every fetch lands byte-identical and no stream times out.
func TestFetchBothWaysOverShallowRing(t *testing.T) {
	sh := Shape{Documents: 40, Categories: 4, Nodes: 2, Clusters: 1, Seed: 3, DocBytes: 4 << 20}
	c := launchOverMemnet(t, sh, nil, memnet.NewSized(2*content.DefaultChunkSize), Options{
		CacheBytes: -1, WriterIdle: -1, Content: &ContentConfig{},
	})
	// Both nodes hold every document; each drops three for the other to
	// serve it back.
	const perSide = 3
	type job struct {
		n   *Node
		doc catalog.DocID
	}
	var jobs []job
	for k, n := range c.Nodes {
		for i := range perSide {
			doc := catalog.DocID(k*perSide + i)
			n.store.Drop(doc)
			jobs = append(jobs, job{n, doc})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			got, err := j.n.Fetch(ctx, j.doc)
			if err != nil {
				t.Errorf("node %d fetch %d: %v", j.n.id, j.doc, err)
				return
			}
			if !bytes.Equal(got, content.SyntheticDoc(j.doc, sh.DocBytes)) {
				t.Errorf("node %d fetch %d: bytes differ from the synthetic oracle", j.n.id, j.doc)
			}
		}(j)
	}
	wg.Wait()
	for _, n := range c.Nodes {
		st := n.Stats()
		if st["transport_reconnects"] != 0 {
			t.Errorf("node %d: transport_reconnects = %d, want 0 (a stream timed out)", n.id, st["transport_reconnects"])
		}
		t.Logf("node %d: %d of %d sends written through", n.id, st["transport_write_through"], st["transport_sends"])
	}
}

// TestFetchSourcesKeepTiers: the serving cluster's members come first
// and the shedding cluster's (prevCluster) after them, each tier ordered
// by RTT, then id. A fetcher whose only RTT sample is for a shedding
// member still lists every serving member ahead of it.
func TestFetchSourcesKeepTiers(t *testing.T) {
	c, inst := launchSmall(t, 31)
	n := c.Nodes[0]
	var serving, shedding []model.NodeID
	var cat catalog.CategoryID
	locked(n, func(n *Node) {
		for k := range inst.Catalog.Cats {
			e, ok := n.dcrt.Get(catalog.CategoryID(k))
			if !ok {
				continue
			}
			prev := (e.Cluster + 1) % model.ClusterID(inst.NumClusters)
			serving, shedding = nil, nil
			n.routable(e.Cluster, func(m model.NodeID) bool {
				if m != n.id {
					serving = append(serving, m)
				}
				return true
			})
			n.routable(prev, func(m model.NodeID) bool {
				if m != n.id && !slices.Contains(serving, m) {
					shedding = append(shedding, m)
				}
				return true
			})
			if len(serving) > 0 && len(shedding) > 0 {
				cat = catalog.CategoryID(k)
				n.prevCluster[cat] = prevClusterRecord{cluster: prev, expires: time.Now().Add(time.Hour)}
				return
			}
		}
		t.Fatal("no category with members in both its serving and another cluster")
	})
	slices.Sort(serving)
	measured := shedding[len(shedding)-1]
	n.rttMu.Lock()
	n.rtt[measured] = 0.5
	n.rttMu.Unlock()

	got := n.fetchSources(cat)
	if len(got) != len(serving)+len(shedding) || !slices.Equal(got[:len(serving)], serving) || got[len(serving)] != measured {
		t.Fatalf("fetchSources = %v; want serving members %v first, then %d (the one measured) ahead of the rest of %v",
			got, serving, measured, shedding)
	}
}
