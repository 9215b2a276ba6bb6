package livenet

import (
	"slices"
	"testing"
	"time"
)

// TestStatsKeysReadOutsideLivenet pins the Stats keys that code outside
// this package reads. A reader of a key no node writes gets zero without
// an error, and `go test ./...` never compiles the benchmark module, so
// a renamed counter would go unnoticed there. Each key listed must be a
// declared counter or a gauge that a node with content, cache,
// membership and adaptation on shows.
func TestStatsKeysReadOutsideLivenet(t *testing.T) {
	readers := map[string][]string{
		"benchmark/": {"cache_hit", "content_cache_installs", "fetch_local_hits", "fetches_total",
			"queries_total", "query_resends", "served", "transfer_bytes_in", "transfer_bytes_out",
			"transfer_req_forwards", "transfer_stalls", "transport_dials", "transport_drops_bulk_full",
			"transport_drops_queue_full", "transport_sends", "wire_bytes_out"},
		"internal/harness": {"cache_hit", "cache_miss", "chunk_hash_fail", "content_cache_installs",
			"fairness_x1000", "served", "transfer_bytes_in", "transfer_bytes_out",
			"transfer_move_docs", "transfer_move_failures", "transfer_move_queued", "transport_sends",
			"wire_bytes_in", "wire_bytes_out"},
		"cmd/p2pnode": {"cache_hit", "cache_miss"},
		"examples/":   {"transfer_bytes_in", "transfer_bytes_out", "transfer_resumes"},
		"the verify skill": {"adapt_evaluations", "adapt_moves", "book_evictions", "content_cache_bytes",
			"content_cache_docs", "content_cache_installs", "content_docs_held", "dcrt_moves",
			"membership_evictions", "served",
			"transport_dial_failures", "transport_dials", "transport_handshake_failures",
			"transport_reconnects", "transport_reuses", "transport_sends", "wire_handshake_rejects"},
	}
	// benchmark/layers.go also reads shard_inbox_drops, which no node has
	// written since the engine lost its shard inboxes. The benchmark
	// module is frozen, so that stale read stays until the benchmark next
	// changes (ROADMAP.md, item 1(f)); it is not asserted here.

	sh := optionsShape()
	sh.DocBytes = 64 << 10
	inst, assign, place, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Launch(inst, assign, place, Options{
		Seed:       sh.Seed,
		Membership: true,
		Adaptation: &AdaptConfig{Interval: 100 * time.Millisecond},
		Content:    &ContentConfig{CacheBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// fairness_x1000 shows once a leader has evaluated an epoch.
	var shown map[string]int64
	waitFor(t, 10*time.Second, "an adaptation epoch evaluated", func() bool {
		shown = c.Stats()
		_, ok := shown["fairness_x1000"]
		return ok
	})

	for reader, keys := range readers {
		for _, k := range keys {
			if _, gauge := shown[k]; !gauge && !slices.Contains(counterKeys, k) {
				t.Errorf("%s reads %q, which is neither a declared counter nor a gauge a node shows", reader, k)
			}
		}
	}
}
