// The scale rung: one deployment of up to paper scale booted live in
// this process — real nodes, real listeners, real protocol traffic —
// over the in-process memnet fabric, measuring what a node costs and
// what the cluster serves.
package harness

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2pshare/internal/livenet"
	"p2pshare/internal/memnet"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
)

// runScalePlan boots the plan's deployment and runs `queries` timed
// queries against it. Goroutines per node are read right after boot
// (the idle cost: writers park, timers ride the shared wheel); heap per
// node is the Go-heap growth of the launch, both sides collected. The
// requester cache is off, so throughput is an engine and transport
// property, and latency is timed around each Query call, so the
// percentiles are exact over the run.
func runScalePlan(p Plan, cfg RunConfig, queries int) (Result, error) {
	start := time.Now()
	inst, assign, place, err := livenet.Shape{
		Documents: p.Docs, Categories: p.Cats, Nodes: p.Nodes,
		Clusters: p.Clusters, Seed: p.Seed,
	}.Build()
	if err != nil {
		return Result{}, err
	}
	nw := memnet.New()
	hooks := livenet.NetHooks{
		Listen: func(_ model.NodeID, addr string) (net.Listener, error) { return nw.Listen(addr) },
		Dial:   func(_ model.NodeID, addr string) (net.Conn, error) { return nw.Dial(addr) },
	}

	fmt.Fprintf(cfg.Out, "plan %s: booting %d live nodes over memnet...\n", p.Name, p.Nodes)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bootStart := time.Now()
	c, err := livenet.Launch(inst, assign, place, livenet.Options{
		Seed: p.Seed, Hooks: hooks, CacheBytes: -1, WriterIdle: scaleWriterIdle,
	})
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	startup := time.Since(bootStart)
	runtime.GC()
	runtime.ReadMemStats(&after)
	goroutines := runtime.NumGoroutine()

	// A fixed pool of origins, each warmed with one query before timing
	// starts: the readings are steady-state serving, not a cold-dial
	// storm from every node at once.
	rng := rand.New(rand.NewSource(p.Seed))
	pool := make([]*livenet.Node, min(scaleOrigins, p.Nodes))
	for i, k := range rng.Perm(p.Nodes)[:len(pool)] {
		pool[i] = c.Nodes[k]
	}
	cats := inst.Catalog.Cats
	for _, origin := range pool {
		origin.Query(cats[rng.Intn(len(cats))].ID, 1, scaleQueryTimeout)
	}

	fmt.Fprintf(cfg.Out, "plan %s: %d queries on %d workers...\n", p.Name, queries, scaleWorkers)
	sendsBefore := c.Stats()["transport_sends"]
	var next, errs atomic.Int64
	lats := make([][]float64, scaleWorkers)
	var wg sync.WaitGroup
	loadStart := time.Now()
	for w := range lats {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.Seed + int64(w)*1299721))
			zipf := rand.NewZipf(rng, scaleZipfS, 1, uint64(len(cats)-1))
			for next.Add(1) <= int64(queries) {
				origin := pool[rng.Intn(len(pool))]
				cat := cats[int(zipf.Uint64())].ID
				t0 := time.Now()
				if _, err := origin.Query(cat, 1, scaleQueryTimeout); err != nil {
					errs.Add(1)
				}
				lats[w] = append(lats[w], float64(time.Since(t0))/float64(time.Millisecond))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(loadStart).Seconds()
	frames := c.Stats()["transport_sends"] - sendsBefore

	var all metrics.Histogram
	for _, l := range lats {
		for _, v := range l {
			all.Observe(v)
		}
	}
	n := float64(p.Nodes)
	return Result{
		Plan: p.Name, Overview: p.Overview, Seed: p.Seed, Nodes: p.Nodes,
		Optimized: p.Optimized,
		Seconds:   time.Since(start).Seconds(),
		Totals: map[string]float64{
			"startup_s":           startup.Seconds(),
			"heap_per_node_kb":    (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n / 1024,
			"rss_mb":              rssMB(),
			"goroutines_per_node": float64(goroutines) / n,
			"errors":              float64(errs.Load()),
			"qps":                 float64(queries) / elapsed,
			"p50_ms":              all.Quantile(0.50),
			"p95_ms":              all.Quantile(0.95),
			"p99_ms":              all.Quantile(0.99),
			"frames_per_query":    float64(frames) / float64(queries),
			"nodes_launched":      n,
		},
	}, nil
}

// rssMB reads the process's resident set (VmRSS) in MB: the absolute
// footprint at the end of the run, not a per-node figure. 0 without
// procfs.
func rssMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
