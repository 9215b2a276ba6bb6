package livenet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"p2pshare/internal/cache"
	"p2pshare/internal/core"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
	"p2pshare/internal/wire"
)

// Tests for the sharded engine: id→shard routing stability, cross-shard
// traffic under concurrency, and the parallel throughput benchmark.

// launchShards is launchSmall with an explicit engine shard count.
func launchShards(t *testing.T, seed int64, shards int) (*Cluster, *model.Instance) {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = 400
	cfg.Catalog.NumCats = 12
	cfg.NumNodes = 24
	cfg.NumClusters = 4
	cfg.Seed = seed
	inst, err := model.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MaxFair(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := model.NewMembership(inst, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	place, err := replica.Place(inst, res.Assignment, mem, replica.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Launch(inst, res.Assignment, place, Options{Seed: seed, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, inst
}

// TestShardRoutingStable pins the id→shard contract: a minted id carries
// its owning shard's index in the low bits, routes back to that shard on
// the minting node, and routes to ONE deterministic shard on any node
// regardless of that node's own shard count.
func TestShardRoutingStable(t *testing.T) {
	n := &Node{querySalt: querySaltFor(5)}
	n.shards = newShards(n, 8, 99)
	for _, s := range n.shards {
		for i := 0; i < 200; i++ {
			id := s.mintID()
			if got := int(id & shardIDMask); got != s.idx {
				t.Fatalf("minted id %#x carries shard bits %d, want %d", id, got, s.idx)
			}
			if home := n.shardFor(id); home != s {
				t.Fatalf("id %#x minted on shard %d routes home to shard %d", id, s.idx, home.idx)
			}
			// A foreign node running any shard count P routes the id by
			// int(id&mask)%P — check the full supported range stays in
			// bounds and is a pure function of the id.
			for p := 1; p <= maxShards; p *= 2 {
				a := int(id&shardIDMask) % p
				b := int(id&shardIDMask) % p
				if a != b || a < 0 || a >= p {
					t.Fatalf("foreign routing unstable for id %#x at P=%d", id, p)
				}
			}
			s.pending[id] = &pendingQuery{id: id} // force mintID forward
		}
	}
	// Two shards of one node never mint the same id (disjoint low bits),
	// and one shard never repeats (pending-collision re-roll + sequence).
	seen := make(map[uint64]struct{})
	for _, s := range n.shards {
		for id := range s.pending {
			if _, dup := seen[id]; dup {
				t.Fatalf("query id %#x minted twice", id)
			}
			seen[id] = struct{}{}
		}
	}
}

// TestCrossShardConcurrentQueries is the 120-concurrent-query race test
// run with 8 engine shards: queries must spread across shards (not
// collapse onto one loop), every caller completes exactly once, and the
// accounting stays conserved — same guarantees as the single-loop test,
// now with cross-shard dispatch in the hot path.
func TestCrossShardConcurrentQueries(t *testing.T) {
	c, inst := launchShards(t, 41, 8)
	n := c.Nodes[0]
	if got := n.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}
	cat := bigCategory(inst)
	const concurrent = 120
	want := unsatisfiable(t, n, cat)

	var wg sync.WaitGroup
	var mu sync.Mutex
	completions, timeouts, oks := 0, 0, 0
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			// A third of the load is satisfiable so success and timeout
			// paths interleave across shards.
			w := want
			if i%3 == 0 {
				w = 1
			}
			out, err := n.QueryContext(ctx, cat, w)
			mu.Lock()
			defer mu.Unlock()
			completions++
			switch {
			case err == nil:
				oks++
			case errors.Is(err, ErrTimeout):
				timeouts++
				if out.Done {
					t.Error("timed-out query reported done")
				}
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	waitInFlight(t, n, 60, 2*time.Second)
	// The round-robin pick must actually spread pending state: with ≥60
	// in flight over 8 shards, several shards must own entries.
	busy := 0
	for _, s := range n.shards {
		if pending, _ := s.tables(0); pending > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("pending queries concentrated on %d shard(s), want spread over several", busy)
	}
	wg.Wait()
	if completions != concurrent {
		t.Errorf("%d of %d queries completed", completions, concurrent)
	}
	if timeouts == 0 || oks == 0 {
		t.Errorf("mixed load produced oks=%d timeouts=%d, want both non-zero", oks, timeouts)
	}
	end := time.Now().Add(time.Second)
	for n.InFlight() != 0 && time.Now().Before(end) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d after all queries returned, want 0", got)
	}
	s := n.Stats()
	if total := s["queries_ok"] + s["query_timeouts"] + s["query_cancelled"]; total != concurrent {
		t.Errorf("queries_ok+query_timeouts+query_cancelled = %d, want %d", total, concurrent)
	}
}

// TestShardLockOrder is the regression guard for the lock order
// shard.mu → routeMu (run it under -race). Reader goroutines push query
// frames at both shards the way connection readers do, a sweeper plays
// the timerwheel, and real callers register and abandon queries — all
// of which take a shard lock and then routeMu.RLock — while publishes
// and moves take routeMu.Lock, the moves on a reader that also carries
// query and result frames. If anything under routeMu.Lock took a shard
// lock, this wedges; it must finish, and every query must still be
// accounted for.
func TestShardLockOrder(t *testing.T) {
	c, inst := launchShards(t, 91, 2)
	n := c.Nodes[0]
	cat := bigCategory(inst)
	doc := inst.Catalog.Cats[cat].Docs[0]
	entry := n.dcrtEntryForTest(cat)
	impossible := unsatisfiable(t, n, cat)

	stop := make(chan struct{})
	var background, callers sync.WaitGroup
	spin := func(fn func(i int)) {
		background.Add(1)
		go func() {
			defer background.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	// Readers: the low id bit picks the shard, so each hits both.
	for r := 0; r < 4; r++ {
		r := r
		spin(func(i int) {
			id := uint64(r+1)<<40 | uint64(i)<<shardIDBits | uint64(i&1)
			n.routeInbound(envelope{From: 1, Msg: protocol.QueryMsg{
				ID: id, Category: cat, Want: 2, Origin: 1, Hops: 1, Entry: true}})
			n.routeInbound(envelope{From: 1, Msg: protocol.ResultMsg{ID: id, From: 1}})
		})
	}
	spin(func(int) {
		for _, s := range n.shards {
			s.trySweep(time.Now())
		}
		n.TableSizes()
	})
	// The routeMu writers: publishes on their caller, moves on a reader
	// (routeInbound takes routeMu.Lock for them), with non-entry query
	// and result frames between them on the same reader.
	spin(func(int) {
		if err := n.Publish(doc); err != nil {
			t.Errorf("publish: %v", err)
		}
	})
	spin(func(i int) {
		for _, msg := range []any{
			wire.Move{Category: cat, Entry: entry},
			protocol.QueryMsg{ID: 1<<50 | uint64(i)<<shardIDBits | uint64(i&1), Category: cat, Want: 1, Origin: 1, Hops: 1},
			protocol.ResultMsg{ID: uint64(i), From: 1},
		} {
			n.routeInbound(envelope{From: 1, Msg: msg})
		}
	})

	watchdog(t, 60*time.Second, func() {
		for q := 0; q < 4; q++ {
			callers.Add(1)
			go func() {
				defer callers.Done()
				for i := 0; i < 40; i++ {
					want, timeout := 1, 5*time.Second
					if i%4 == 3 {
						want, timeout = impossible, 5*time.Millisecond // registers, then abandons
					}
					if _, err := n.Query(cat, want, timeout); err != nil && !errors.Is(err, ErrTimeout) {
						t.Errorf("query: %v", err)
					}
				}
			}()
		}
		callers.Wait()
		close(stop)
		background.Wait()
	})

	s := n.Stats()
	exits := s["queries_ok"] + s["query_rejected"] + s["query_no_route"] +
		s["query_timeouts"] + s["query_cancelled"] + s["query_closed"]
	if s["queries_total"] != 160 || exits != 160 {
		t.Errorf("conservation broken: queries_total=%d, exits sum to %d, want 160 each", s["queries_total"], exits)
	}
	if s["queries_ok"] == 0 || s["query_timeouts"] == 0 {
		t.Errorf("queries_ok=%d query_timeouts=%d, want both paths exercised", s["queries_ok"], s["query_timeouts"])
	}
	waitFor(t, 2*time.Second, "slots released", func() bool { return n.InFlight() == 0 })
}

// BenchmarkEngineParallel measures one node's query throughput under
// parallel callers at 1, 2, and GOMAXPROCS engine shards (the cache is
// off so every query runs the full engine + transport path). On a
// multi-core runner the GOMAXPROCS case should scale well past the
// single-shard case; on one core the three collapse together.
func BenchmarkEngineParallel(b *testing.B) {
	counts := []int{1, 2}
	if p := DefaultShards(); p > 2 {
		counts = append(counts, p)
	}
	for _, shards := range counts {
		b.Run(benchName(shards), func(b *testing.B) {
			cfg := model.DefaultConfig()
			cfg.Catalog.NumDocs = 400
			cfg.Catalog.NumCats = 12
			cfg.NumNodes = 24
			cfg.NumClusters = 4
			cfg.Seed = 51
			inst, err := model.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			c, err := Launch(inst, assignAll(inst), nil, Options{Seed: 51, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			n := c.Nodes[0]
			if err := n.SetCacheCapacity(cache.LRU, 0); err != nil {
				b.Fatal(err)
			}
			cat := bigCategory(inst)
			// Warm the streams so the benchmark measures the engine, not
			// connection setup.
			if _, err := n.Query(cat, 1, 5*time.Second); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := n.Query(cat, 1, 5*time.Second); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(b.N)/el, "queries/sec")
			}
		})
	}
}

func benchName(shards int) string {
	switch shards {
	case 1:
		return "shards=1"
	case 2:
		return "shards=2"
	default:
		return "shards=gomaxprocs"
	}
}
