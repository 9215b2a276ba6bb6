package livenet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/wire"
)

// Tests for the query table: concurrent callers, the lock order, the
// resend rule, and the parallel throughput benchmark.

// TestCrossShardConcurrentQueries is the 120-concurrent-query race test
// with successes and timeouts interleaved on one query table: every
// caller completes exactly once, every slot is released, and the
// accounting stays conserved.
func TestCrossShardConcurrentQueries(t *testing.T) {
	c, inst := launchSmall(t, 41)
	n := c.Nodes[0]
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
			// paths interleave.
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
// queries.mu → routeMu (run it under -race). Reader goroutines push query
// and result frames the way connection readers do, a sweeper plays the
// timerwheel, and real callers register and abandon queries — all of
// which take the query table's lock and then routeMu.RLock — while
// publishes and moves take routeMu.Lock, the moves on a reader that also
// carries query and result frames. If anything under routeMu.Lock took
// the table's lock, this wedges; it must finish, and every query must
// still be accounted for.
func TestShardLockOrder(t *testing.T) {
	c, inst := launchSmall(t, 91)
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
	// Readers: entry queries and results for ids nobody registered.
	for r := 0; r < 4; r++ {
		r := r
		spin(func(i int) {
			id := uint64(r+1)<<40 | uint64(i)
			n.routeInbound(envelope{From: 1, Msg: protocol.QueryMsg{
				ID: id, Category: cat, Want: 2, Origin: 1, Hops: 1, Entry: true}})
			n.routeInbound(envelope{From: 1, Msg: protocol.ResultMsg{ID: id, From: 1}})
		})
	}
	spin(func(int) {
		n.trySweep(time.Now())
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
			protocol.QueryMsg{ID: 1<<50 | uint64(i), Category: cat, Want: 1, Origin: 1, Hops: 1},
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

// TestResendRecoversPartialAnswer pins the resend rule for a query the
// entry member answered in part: when the frame to the holder it asked
// is lost, the query is re-sent like a silent one — once per resendAfter
// after its last send, at most maxResends times — instead of waiting out
// its deadline with a partial result.
func TestResendRecoversPartialAnswer(t *testing.T) {
	n := allocTestNode()
	n.nrt = map[model.ClusterID][]model.NodeID{1: {2, 3}}
	now := time.Now()
	pq := &pendingQuery{
		id: 42, cat: 3, want: 2, need: 2,
		docs:     make(map[catalog.DocID]bool),
		ch:       make(chan QueryOutcome, 1),
		deadline: now.Add(time.Minute),
		lastSend: now.Add(-2 * resendAfter),
	}
	withTable(n, func(n *Node) { n.queries.pending[pq.id] = pq })
	// The entry member's half of the answer; the holder's half is lost.
	n.handleResult(protocol.ResultMsg{ID: pq.id, Docs: []catalog.DocID{10}, Hops: 1, From: 2})

	sweep := func(at time.Time) {
		withTable(n, func(n *Node) { n.sweep(at) })
	}
	sweep(now)
	if pq.resends != 1 || n.stats.Get("query_resends") != 1 {
		t.Fatalf("partly answered query: %d resends (query_resends=%d), want exactly 1",
			pq.resends, n.stats.Get("query_resends"))
	}
	sweep(now.Add(resendAfter / 2)) // within resendAfter of the resend
	sweep(now.Add(2 * resendAfter))
	sweep(now.Add(4 * resendAfter)) // the budget is spent
	if pq.resends != maxResends || n.stats.Get("query_resends") != maxResends {
		t.Fatalf("%d resends (query_resends=%d), want the budget of %d",
			pq.resends, n.stats.Get("query_resends"), maxResends)
	}
	if len(pq.docs) != 1 {
		t.Fatalf("pending query holds %d documents, want the 1 answered", len(pq.docs))
	}
}

// BenchmarkEngineParallel measures one node's query throughput under 2
// and 32 parallel callers. The cache is off, so every query runs the
// full engine and transport path over loopback TCP.
func BenchmarkEngineParallel(b *testing.B) {
	for _, callers := range []int{2, 32} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
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
			c, err := Launch(inst, assignAll(inst), nil, Options{Seed: 51, CacheBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			n := c.Nodes[0]
			cat := bigCategory(inst)
			// Warm the streams so the benchmark measures the engine, not
			// connection setup.
			if _, err := n.Query(cat, 1, 5*time.Second); err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := n.Query(cat, 1, 5*time.Second); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(b.N)/el, "queries/sec")
			}
		})
	}
}
