package livenet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/query"
)

// waitInFlight polls until the node's in-flight gauge reaches at least
// want, failing the test after the deadline.
func waitInFlight(t *testing.T, n *Node, want int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if n.InFlight() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("in-flight gauge never reached %d (now %d)", want, n.InFlight())
}

// unsatisfiable makes n's queries for cat wait out their deadline and
// returns the demand they ask for: n's view of cat claims more documents
// than are placed, as a stale view might, so the serving cluster answers
// everything it holds and the query still needs more.
func unsatisfiable(t *testing.T, n *Node, cat catalog.CategoryID) int {
	t.Helper()
	const want = 1 << 20
	locked(n, func(n *Node) {
		v := n.holders.of(cat)
		v.Placed = want
		putView(n, cat, v)
	})
	return want
}

// TestHundredConcurrentInFlightQueries holds ≥ 100 queries in flight on
// ONE node simultaneously and checks every one of them completes exactly
// once — no lost queries, no double completions, and the pending table
// drains back to zero.
func TestHundredConcurrentInFlightQueries(t *testing.T) {
	c, inst := launchSmall(t, 21)
	n := c.Nodes[0]
	cat := bigCategory(inst)
	const concurrent = 120
	want := unsatisfiable(t, n, cat)

	var wg sync.WaitGroup
	var mu sync.Mutex
	completions := 0
	timeouts := 0
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			out, err := n.QueryContext(ctx, cat, want)
			mu.Lock()
			defer mu.Unlock()
			completions++
			if errors.Is(err, ErrTimeout) {
				timeouts++
				if out.Done {
					t.Error("timed-out query reported done")
				}
			} else if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	waitInFlight(t, n, 100, 2*time.Second)
	wg.Wait()
	if completions != concurrent {
		t.Errorf("%d of %d queries completed", completions, concurrent)
	}
	if timeouts == 0 {
		t.Error("impossible demand produced no timeouts")
	}
	if got := n.InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d after all queries returned, want 0", got)
	}
	s := n.Stats()
	if total := s["queries_ok"] + s["query_timeouts"] + s["query_cancelled"]; total != concurrent {
		t.Errorf("queries_ok+query_timeouts+query_cancelled = %d, want %d", total, concurrent)
	}
}

// TestConcurrentSatisfiableQueries runs many completable queries at once
// from one origin and checks they all succeed with correct results.
func TestConcurrentSatisfiableQueries(t *testing.T) {
	c, inst := launchSmall(t, 22)
	n := c.Nodes[1]
	cat := bigCategory(inst)
	const concurrent = 50
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := n.QueryContext(ctx, cat, 2)
			if err != nil {
				errs <- err
				return
			}
			if !out.Done || out.Results < 2 || len(out.Docs) != out.Results {
				t.Errorf("outcome: %+v", out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for range errs {
		failed++
	}
	if failed > concurrent/10 {
		t.Errorf("%d of %d concurrent queries failed", failed, concurrent)
	}
	if got := n.InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d after drain, want 0", got)
	}
}

// TestCancellationReleasesSlot cancels a query mid-flight and checks the
// in-flight slot frees immediately (not at the would-be deadline) and the
// cancellation is counted.
func TestCancellationReleasesSlot(t *testing.T) {
	c, inst := launchSmall(t, 23)
	n := c.Nodes[2]
	cat := bigCategory(inst)
	want := unsatisfiable(t, n, cat)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := n.QueryContext(ctx, cat, want)
		done <- err
	}()
	waitInFlight(t, n, 1, 2*time.Second)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled query returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	end := time.Now().Add(time.Second)
	for n.InFlight() != 0 && time.Now().Before(end) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.InFlight(); got != 0 {
		t.Errorf("in-flight slot not released after cancel: %d", got)
	}
	if n.Stats()["query_cancelled"] != 1 {
		t.Errorf("query_cancelled = %d, want 1", n.Stats()["query_cancelled"])
	}
}

// TestAdmissionControlRejectsAtLimit fills the in-flight table to a small
// limit and checks the next query is rejected with ErrOverloaded instead
// of queueing.
func TestAdmissionControlRejectsAtLimit(t *testing.T) {
	const limit = 4
	c, inst := launchWith(t, 24, Options{maxInFlight: limit})
	n := c.Nodes[3]
	cat := bigCategory(inst)
	want := unsatisfiable(t, n, cat)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < limit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.QueryContext(ctx, cat, want)
		}()
	}
	waitInFlight(t, n, limit, 2*time.Second)
	_, err := n.QueryContext(context.Background(), cat, 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("query over the limit returned %v, want ErrOverloaded", err)
	}
	if n.Stats()["query_rejected"] == 0 {
		t.Error("rejection not counted")
	}
	cancel()
	wg.Wait()
	// With the slots released, admission lets queries through again.
	if _, err := n.Query(cat, 1, 5*time.Second); err != nil {
		t.Errorf("query after slots freed: %v", err)
	}
}

// TestCacheHitShortCircuitsRepeatQuery checks the requester-side cache:
// a second identical query is answered locally in zero hops without any
// network traffic.
func TestCacheHitShortCircuitsRepeatQuery(t *testing.T) {
	c, inst := launchSmall(t, 25)
	n := c.Nodes[4]
	cat := bigCategory(inst)
	first, err := n.Query(cat, 3, 5*time.Second)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	if first.Hops < 1 {
		t.Fatalf("first query hops = %d, want ≥ 1", first.Hops)
	}
	sends := n.Stats()["transport_sends"]
	second, err := n.Query(cat, 3, 5*time.Second)
	if err != nil {
		t.Fatalf("repeat query: %v", err)
	}
	if !second.Done || second.Hops != 0 {
		t.Errorf("repeat query not served from cache: %+v", second)
	}
	if got := n.Stats()["transport_sends"]; got != sends {
		t.Errorf("repeat query sent %d messages, want 0", got-sends)
	}
	s := n.Stats()
	if s["cache_hit"] != 1 || s["cache_miss"] != 1 {
		t.Errorf("cache_hit=%d cache_miss=%d, want 1 and 1", s["cache_hit"], s["cache_miss"])
	}
	// The cached docs are real members of the category.
	for _, d := range second.Docs {
		if inst.Catalog.Doc(d).Categories[0] != cat {
			t.Errorf("cached doc %d not in category %d", d, cat)
		}
	}
}

// TestCacheDisabledAlwaysGoesToNetwork turns the cache off and checks
// repeat queries still traverse the overlay.
func TestCacheDisabledAlwaysGoesToNetwork(t *testing.T) {
	c, inst := launchWith(t, 26, Options{CacheBytes: -1})
	n := c.Nodes[5]
	cat := bigCategory(inst)
	for i := 0; i < 2; i++ {
		out, err := n.Query(cat, 2, 5*time.Second)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if out.Hops == 0 {
			t.Errorf("query %d reported zero hops with caching disabled", i)
		}
	}
	s := n.Stats()
	if s["cache_hit"] != 0 || s["cache_miss"] != 0 {
		t.Errorf("cache counters moved while disabled: hit=%d miss=%d", s["cache_hit"], s["cache_miss"])
	}
}

// TestQueryContextPreCancelled checks a context that is already dead is
// rejected without touching the pending table.
func TestQueryContextPreCancelled(t *testing.T) {
	c, inst := launchSmall(t, 27)
	n := c.Nodes[6]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.QueryContext(ctx, bigCategory(inst), 1); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx returned %v", err)
	}
	if got := n.InFlight(); got != 0 {
		t.Errorf("pre-cancelled query left %d pending entries", got)
	}
}

// TestSharedResultTypeAndErrors pins the API unification: livenet's
// outcome IS the shared query.Result, and the sentinel errors match
// across packages with errors.Is.
func TestSharedResultTypeAndErrors(t *testing.T) {
	var out QueryOutcome
	var _ query.Result = out // compile-time: same type
	if !errors.Is(ErrTimeout, query.ErrTimeout) ||
		!errors.Is(ErrNoRoute, query.ErrNoRoute) ||
		!errors.Is(ErrClosed, query.ErrClosed) ||
		!errors.Is(ErrOverloaded, query.ErrOverloaded) {
		t.Error("livenet sentinels do not match internal/query sentinels")
	}
}

// TestQueryNoRouteUnknownCategory checks the fail-fast path still returns
// the (now shared) ErrNoRoute sentinel.
func TestQueryNoRouteUnknownCategory(t *testing.T) {
	c, inst := launchSmall(t, 28)
	n := c.Nodes[0]
	bogus := catalog.CategoryID(len(inst.Catalog.Cats) + 50)
	if _, err := n.QueryContext(context.Background(), bogus, 1); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unroutable category returned %v, want ErrNoRoute", err)
	}
}
