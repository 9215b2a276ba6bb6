package livenet

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/content"
	"p2pshare/internal/memnet"
)

// fetch4MBCluster boots the fetch_4mb benchmark workload's deployment —
// 64 nodes over 512 KB memnet rings, 4 MB synthetic documents, caches
// off — and returns one client node with sixteen documents it holds no
// copy of, so every Fetch streams the full document from a remote
// holder. Each document's manifest is built here, through one holder
// (a synthetic manifest is hashed once per process, on the first
// request for it), so callers measure transfers.
func fetch4MBCluster(tb testing.TB) (*Node, []catalog.DocID) {
	tb.Helper()
	sh := Shape{Documents: 128, Categories: 16, Nodes: 64, Clusters: 4, Seed: 51}
	c := launchOverMemnet(tb, sh, nil, memnet.NewSized(512<<10), Options{
		CacheBytes: -1,
		WriterIdle: -1,
		Content:    &ContentConfig{},
	})
	client := c.Nodes[0]
	var remote []catalog.DocID
	for _, d := range c.inst.Catalog.Docs {
		if len(remote) < 16 && d.Size == 4<<20 && !client.store.Has(d.ID) {
			remote = append(remote, d.ID)
			for _, n := range c.Nodes {
				if n.store.Has(d.ID) {
					n.store.Manifest(d.ID)
					break
				}
			}
		}
	}
	if len(remote) < 16 {
		tb.Fatalf("client lacks only %d documents; too few to fetch remotely", len(remote))
	}
	return client, remote
}

func mustFetch(tb testing.TB, n *Node, d catalog.DocID) []byte {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b, err := n.Fetch(ctx, d)
	if err != nil {
		tb.Fatalf("Fetch(%d): %v", d, err)
	}
	return b
}

// TestFetchByteBudget pins the bulk data plane's allocation budget: a
// remote 4 MB fetch allocates the caller's 4 MB result plus at most a
// tenth — no per-chunk payload buffers on either side of the link (the
// server generates into a pooled frame, the reader decodes out of one).
// The parent of this pin allocated 2.6× the document per fetch.
func TestFetchByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume differs under the race detector")
	}
	client, remote := fetch4MBCluster(t)
	remote = remote[:8]
	// The budget is a steady-state property: a first contact with a holder
	// allocates a megabyte of ring and two stream buffers, and which
	// holder wins discovery varies. So warm up, then take the cheapest of
	// three measured passes over the same documents.
	pass := func(check bool) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, d := range remote {
			got := mustFetch(t, client, d)
			if check && !bytes.Equal(got, content.SyntheticDoc(d, 4<<20)) {
				t.Fatalf("doc %d: fetched bytes differ from the oracle", d)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(remote))
	}
	pass(true)
	pass(false)
	perFetch := min(pass(false), pass(false), pass(false))
	if budget := 1.1 * float64(4<<20); perFetch > budget {
		t.Fatalf("a remote 4 MB fetch allocates %.0f KB, budget %.0f KB", perFetch/1024, budget/1024)
	}
	if got := client.Stats()["fetch_local_hits"]; got != 0 {
		t.Fatalf("%d fetches were local hits; the budget was not measured on remote transfers", got)
	}
}

// BenchmarkFetch4MB is the fetch_4mb workload as a go test benchmark:
// `go test -run '^$' -bench Fetch4MB -cpu 1 -cpuprofile cpu.out
// ./internal/livenet` reproduces its profile without the benchmark
// module. One client fetches remote 4 MB documents back to back.
func BenchmarkFetch4MB(b *testing.B) {
	client, remote := fetch4MBCluster(b)
	for _, d := range remote { // links to the holders dialed before timing
		mustFetch(b, client, d)
	}
	b.SetBytes(4 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFetch(b, client, remote[i%len(remote)])
	}
}

// TestQueriesLeaveNodeHeapFlat pins that a node keeps counts, not
// samples: 100 000 queries answered from the requester cache leave the
// live heap where it was. A node that kept one 8-byte latency sample
// per query grew ≈ 0.8 MB here.
func TestQueriesLeaveNodeHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the live heap")
	}
	const queries, budget = 100_000, 128 << 10
	c := launchOverMemnet(t, twoNodeShape(), nil, memnet.New(), Options{})
	n := c.Nodes[0]
	cat := bigCategory(c.inst)
	query := func() {
		if _, err := n.QueryContext(context.Background(), cat, 1); err != nil {
			t.Fatal(err)
		}
	}
	query() // the one network answer fills the cache
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		query()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if hits := n.Stats()["cache_hit"]; hits < queries {
		t.Fatalf("%d of %d queries were cache hits", hits, queries)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= budget {
		t.Fatalf("%d cache-hit queries grew the live heap by %d KB, budget %d KB",
			queries, grew>>10, budget>>10)
	}
}
