package livenet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"p2pshare/internal/catalog"
)

// TestQueryAccountingConservation drives one node through every
// QueryContext exit path — successes (network and cache hit), timeouts,
// mid-flight cancellations, admission rejections, no-route failures, and
// pre-cancelled contexts — and asserts the counters balance exactly:
//
//	queries_total == queries_ok + query_rejected + query_no_route +
//	                 query_timeouts + query_cancelled + query_closed
//
// and the latency histogram observed every query a caller actually
// waited on (ok + timeouts + cancelled), no more, no fewer. An
// earlier engine violated both: abandoned queries skipped the
// histogram, and some exits double-counted.
func TestQueryAccountingConservation(t *testing.T) {
	// Two admission slots: the rejection phase below fills both.
	c, inst := launchWith(t, 63, Options{MaxInFlight: 2})
	n := c.Nodes[0]
	cat := bigCategory(inst)
	impossible := unsatisfiable(t, n, cat)

	// Successes, including a repeat that must be served from the
	// requester cache (still exactly one queries_ok each).
	for i := 0; i < 6; i++ {
		if _, err := n.Query(cat, 1, 5*time.Second); err != nil {
			t.Fatalf("satisfiable query %d: %v", i, err)
		}
	}

	// Timeouts: unsatisfiable demand with a short deadline.
	for i := 0; i < 3; i++ {
		if _, err := n.Query(cat, impossible, 150*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("impossible query returned %v, want ErrTimeout", err)
		}
	}

	// Cancellations: abandon queries mid-flight, one per slot.
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.QueryContext(ctx, cat, impossible); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled query returned %v, want context.Canceled", err)
			}
		}()
	}
	waitInFlight(t, n, 2, 2*time.Second)
	cancel()
	wg.Wait()

	// Rejections: fill both slots, overflow twice.
	hold, holdCancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.QueryContext(hold, cat, impossible)
		}()
	}
	waitInFlight(t, n, 2, 2*time.Second)
	// Demand more than the cache holds so the fast path can't satisfy the
	// overflow queries before admission sees them.
	for i := 0; i < 2; i++ {
		if _, err := n.QueryContext(context.Background(), cat, impossible); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("query over the limit returned %v, want ErrOverloaded", err)
		}
	}
	holdCancel()
	wg.Wait()

	// No-route: a category no cluster serves fails fast.
	bogus := catalog.CategoryID(len(inst.Catalog.Cats) + 50)
	if _, err := n.QueryContext(context.Background(), bogus, 1); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unroutable category returned %v, want ErrNoRoute", err)
	}

	// Pre-cancelled context: counted as a cancellation, never registered.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := n.QueryContext(dead, cat, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx returned %v, want context.Canceled", err)
	}

	s := n.Stats()
	exits := s["queries_ok"] + s["query_rejected"] + s["query_no_route"] +
		s["query_timeouts"] + s["query_cancelled"] + s["query_closed"]
	if s["queries_total"] != exits {
		t.Errorf("conservation broken: queries_total=%d but exits sum to %d (%+v)",
			s["queries_total"], exits, s)
	}
	if s["query_closed"] != 0 {
		t.Errorf("query_closed=%d on a live node, want 0", s["query_closed"])
	}
	// Spot-check each path actually fired — a conservation equation over
	// all-zero counters proves nothing.
	for _, k := range []string{"queries_ok", "query_timeouts", "query_cancelled",
		"query_rejected", "query_no_route", "cache_hit"} {
		if s[k] == 0 {
			t.Errorf("%s never incremented — test lost coverage of that exit path", k)
		}
	}

	// The histogram saw exactly the queries a caller waited on. Timed-out
	// and cancelled queries DO observe (their wait is response time too);
	// rejections and no-route exits (which never wait) do not.
	waited := s["queries_ok"] + s["query_timeouts"] + s["query_cancelled"]
	if got := int64(n.QueryLatency().Count()); got != waited {
		t.Errorf("latency histogram counted %d observations, want %d (ok+timeouts+cancelled)",
			got, waited)
	}
}
