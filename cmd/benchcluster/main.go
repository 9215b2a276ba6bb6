// Command benchcluster boots paper-scale LIVE clusters — real nodes,
// real listeners, real protocol traffic — over the in-process memnet
// fabric and measures what a node costs and what the cluster serves.
// It is the tracked entry point of the cluster-scale perf trajectory
// (ROADMAP item 2: the simulator reached 10k nodes long ago; this is
// the same scale with every node actually running).
//
//	go run ./cmd/benchcluster -out BENCH_cluster.json
//	go run ./cmd/benchcluster -nodes 1000 -queries 500   # CI smoke
//
// Per scale it reports startup time, resident memory per node, goroutine
// count per node (after boot, i.e. the idle cost — transport writers
// park, timers ride the shared wheel), and Zipf-workload throughput with
// driver-side latency percentiles and the frames sent per query. The
// requester cache is disabled so throughput is an engine+transport
// property, not a cache property.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2pshare/internal/livenet"
	"p2pshare/internal/memnet"
	"p2pshare/internal/model"
)

// run is one cluster scale's measurement.
type run struct {
	Nodes          int     `json:"nodes"`
	Clusters       int     `json:"clusters"`
	StartupSeconds float64 `json:"startup_seconds"`
	// HeapBytesPerNode is the Go-heap growth of booting the cluster
	// (HeapAlloc delta across the launch, both sides GC'd) divided by the
	// node count — the per-node footprint. RSSBytes is the absolute
	// process resident set after boot for context; it is NOT per-node
	// (the process reuses freed heap across runs, so deltas of RSS
	// mislead).
	HeapBytesPerNode  float64 `json:"heap_bytes_per_node"`
	RSSBytes          int64   `json:"rss_bytes"`
	GoroutinesTotal   int     `json:"goroutines_total"`
	GoroutinesPerNode float64 `json:"goroutines_per_node"`
	Queries           int     `json:"queries"`
	Errors            int     `json:"errors"`
	Seconds           float64 `json:"seconds"`
	QPS               float64 `json:"qps"`
	P50Ms             float64 `json:"p50_ms"`
	P95Ms             float64 `json:"p95_ms"`
	P99Ms             float64 `json:"p99_ms"`
	// FramesPerQuery is every frame the cluster sent during the timed
	// queries (transport_sends), divided by the query count.
	FramesPerQuery float64 `json:"frames_per_query"`
}

// report is the whole artifact.
type report struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Workers    int     `json:"workers"`
	Zipf       float64 `json:"zipf_s"`
	Runs       []run   `json:"runs"`
}

// rssBytes reads the process's resident set from /proc/self/status
// (VmRSS); 0 on platforms without procfs.
func rssBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// shapeFor picks a deployment geometry for a node count: clusters scale
// with the population (the paper's 20k-node runs used 100 clusters), and
// the catalog provides two documents per node so every node stores
// something.
func shapeFor(nodes int, seed int64) livenet.Shape {
	clusters := nodes / 100
	if clusters < 4 {
		clusters = 4
	}
	if clusters > 100 {
		clusters = 100
	}
	cats := 5 * clusters
	return livenet.Shape{
		Documents:  2 * nodes,
		Categories: cats,
		Nodes:      nodes,
		Clusters:   clusters,
		Seed:       seed,
	}
}

func bench(nodes, queries, workers, origins int, zipfS float64, seed int64) (run, error) {
	sh := shapeFor(nodes, seed)
	inst, assign, place, err := sh.Build()
	if err != nil {
		return run{}, err
	}

	nw := memnet.New()
	hooks := livenet.NetHooks{
		Listen: func(_ model.NodeID, addr string) (net.Listener, error) { return nw.Listen(addr) },
		Dial:   func(_ model.NodeID, addr string) (net.Conn, error) { return nw.Dial(addr) },
	}

	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	bootStart := time.Now()
	c, err := livenet.Launch(inst, assign, place, livenet.Options{
		Seed:  seed,
		Hooks: hooks,
		// Full engine+transport path on every query; no requester cache.
		CacheBytes: -1,
		// Park quickly: idle cost should reflect steady state, not the
		// 45s default tail.
		WriterIdle: 2 * time.Second,
	})
	if err != nil {
		return run{}, err
	}
	defer c.Close()
	startup := time.Since(bootStart)
	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	goroutines := runtime.NumGoroutine()

	// Requesters are a fixed pool of origin nodes, warmed with one query
	// each before timing starts: the measured numbers are the cluster's
	// steady-state serving behavior, not a cold-dial storm from 10k
	// distinct origins at once.
	rng := rand.New(rand.NewSource(seed))
	if origins > nodes {
		origins = nodes
	}
	pool := make([]*livenet.Node, origins)
	for i, k := range rng.Perm(nodes)[:origins] {
		pool[i] = c.Nodes[k]
	}
	cats := inst.Catalog.Cats
	for _, origin := range pool {
		cat := cats[rng.Intn(len(cats))].ID
		origin.Query(cat, 1, 10*time.Second)
	}

	// Zipf workload over categories. Latency is measured around each
	// Query call in the driver, so the percentiles are exact over the
	// run, not histogram-bucketed.
	sendsBefore := c.Stats()["transport_sends"]
	var next, errs atomic.Int64
	latencies := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	loadStart := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*1299721))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(cats)-1))
			lats := make([]time.Duration, 0, queries/workers+1)
			for next.Add(1) <= int64(queries) {
				origin := pool[rng.Intn(len(pool))]
				cat := cats[int(zipf.Uint64())].ID
				t0 := time.Now()
				if _, err := origin.Query(cat, 1, 10*time.Second); err != nil {
					errs.Add(1)
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(loadStart)
	frames := c.Stats()["transport_sends"] - sendsBefore

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}

	heapDelta := float64(msAfter.HeapAlloc) - float64(msBefore.HeapAlloc)
	return run{
		Nodes:             nodes,
		Clusters:          sh.Clusters,
		StartupSeconds:    startup.Seconds(),
		HeapBytesPerNode:  heapDelta / float64(nodes),
		RSSBytes:          rssBytes(),
		GoroutinesTotal:   goroutines,
		GoroutinesPerNode: float64(goroutines) / float64(nodes),
		Queries:           queries,
		Errors:            int(errs.Load()),
		Seconds:           elapsed.Seconds(),
		QPS:               float64(queries) / elapsed.Seconds(),
		P50Ms:             q(0.50),
		P95Ms:             q(0.95),
		P99Ms:             q(0.99),
		FramesPerQuery:    float64(frames) / float64(queries),
	}, nil
}

func main() {
	var (
		out        = flag.String("out", "BENCH_cluster.json", "output path (- = stdout)")
		nodeList   = flag.String("nodes", "1000,5000,10000", "comma-separated cluster sizes")
		queries    = flag.Int("queries", 2000, "queries per scale")
		workers    = flag.Int("workers", 16, "concurrent query workers")
		origins    = flag.Int("origins", 256, "size of the requester pool queries originate from")
		zipfS      = flag.Float64("zipf", 1.2, "Zipf skew parameter s for category popularity")
		seed       = flag.Int64("seed", 51, "deployment seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcluster:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchcluster:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var sizes []int
	for _, s := range strings.Split(*nodeList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 4 {
			fmt.Fprintf(os.Stderr, "benchcluster: bad -nodes entry %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}

	rep := report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Seed:       *seed,
		Workers:    *workers,
		Zipf:       *zipfS,
	}
	for _, n := range sizes {
		fmt.Fprintf(os.Stderr, "benchcluster: booting %d live nodes over memnet...\n", n)
		r, err := bench(n, *queries, *workers, *origins, *zipfS, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcluster:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr,
			"benchcluster: nodes=%d startup=%.1fs heap/node=%.0fKB goroutines/node=%.2f qps=%.0f p50=%.2fms p95=%.2fms p99=%.2fms errors=%d\n",
			r.Nodes, r.StartupSeconds, r.HeapBytesPerNode/1024, r.GoroutinesPerNode,
			r.QPS, r.P50Ms, r.P95Ms, r.P99Ms, r.Errors)
		rep.Runs = append(rep.Runs, r)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcluster:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchcluster:", err)
		}
		f.Close()
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcluster:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcluster:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchcluster: wrote", *out)
}
