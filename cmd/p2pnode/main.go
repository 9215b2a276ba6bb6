// Command p2pnode runs ONE live peer of a multi-process deployment.
//
// Every process of a deployment is started with the same shape flags
// (-docs -cats -nodes -clusters -seed); deterministic generation then
// reconstructs the identical catalog, MaxFair assignment, and replica
// placement in each process, so only the address book needs exchanging.
// The first process is the seed; later ones join through any running
// peer's address:
//
//	p2pnode -id 0 -listen 127.0.0.1:7000
//	p2pnode -id 1 -listen 127.0.0.1:7001 -bootstrap 127.0.0.1:7000
//	p2pnode -id 2 -listen 127.0.0.1:7002 -bootstrap 127.0.0.1:7000 \
//	        -query 3 -every 2s
//
// With -query, the node issues keyword queries against the given category
// on an interval and prints the outcomes; otherwise it serves silently
// until interrupted.
//
// With -loadgen, the node becomes a load generator: -concurrency worker
// goroutines issue -queries queries of the Zipf workload of
// internal/workload (temporal locality tunable with -repeat), the same
// load machine mode runs for the harness, then print the outcome
// counts, a latency histogram with p50/p95/p99 and the requester-cache
// hit share. Ctrl-c stops issuing and reports what was issued:
//
//	p2pnode -id 3 -bootstrap 127.0.0.1:7000 -loadgen \
//	        -concurrency 32 -queries 50000 -repeat 0.4
//
// With -harness, the node is one orchestrated peer of an
// internal/harness plan instead (see machine.go).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on -pprof
	"os"
	"os/signal"
	"sort"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/chaos"
	"p2pshare/internal/harness/proto"
	"p2pshare/internal/livenet"
	"p2pshare/internal/membership"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
)

// printStats dumps the node's transport/protocol counters in a stable
// order, then the membership view and the write-batch histogram.
func printStats(node *livenet.Node) {
	s := node.Stats()
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("stats:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, s[k])
	}
	fmt.Println()
	if alive, suspect := node.MembershipCounts(); alive > 0 {
		line := fmt.Sprintf("membership: %d alive, %d suspect", alive, suspect)
		if f := node.Fairness(); f >= 0 {
			line += fmt.Sprintf("; measured fairness %.3f", float64(f)/1000)
		}
		fmt.Println(line)
	}
	if batches := node.BatchSizes(); batches.Count() > 0 {
		fmt.Printf("write batches (msgs/flush): %s\n", batches.Summary())
	}
}

// runLoadgen drives the deployment from this node with machine mode's
// load (the harness's LoadSpec, catalog-popularity Zipf queries) until
// the count is issued or stop fires, then reports outcomes, latency
// percentiles, a latency distribution, and the cache's contribution.
func runLoadgen(node *livenet.Node, spec proto.LoadSpec, stop <-chan os.Signal) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	fmt.Printf("loadgen: %d workers, %d queries (m=%d, repeat=%.2f)\n",
		spec.Concurrency, spec.Queries, spec.M, spec.Repeat)
	rep, err := machineLoad(ctx, node, spec)
	if err != nil {
		return err
	}
	fmt.Printf("\nloadgen: %d queries in %.3fs (%.1f qps): %d ok, %d timeout, %d rejected, %d no route, %d failed\n",
		rep.Issued, rep.Seconds, float64(rep.Issued)/rep.Seconds,
		rep.OK, rep.Timeouts, rep.Rejected, rep.NoRoute, rep.Failed)
	if len(rep.LatencyMS) > 0 {
		lat := &metrics.Histogram{}
		for _, ms := range rep.LatencyMS {
			lat.Observe(ms)
		}
		fmt.Printf("latency (ms): %s\n", lat.PercentileSummary())
		fmt.Print(lat.Distribution(12, 40))
	}
	s := node.Stats()
	hits, misses := s["cache_hit"], s["cache_miss"]
	if hits+misses > 0 {
		fmt.Printf("requester cache: %d hits / %d lookups (%.1f%%)\n",
			hits, hits+misses, 100*float64(hits)/float64(hits+misses))
	}
	return nil
}

func main() {
	id := flag.Int("id", 0, "this process's node id within the shape")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	bootstrap := flag.String("bootstrap", "", "address of any running peer (empty = seed node)")
	docs := flag.Int("docs", 800, "shape: number of documents")
	cats := flag.Int("cats", 16, "shape: number of categories")
	nodes := flag.Int("nodes", 40, "shape: number of nodes")
	clusters := flag.Int("clusters", 5, "shape: number of clusters")
	seed := flag.Int64("seed", 1, "shape: deterministic-generation seed")
	query := flag.Int("query", -1, "category id to query periodically (-1 = serve only)")
	every := flag.Duration("every", 2*time.Second, "query interval")
	m := flag.Int("m", 3, "results per query")
	statsEvery := flag.Duration("stats", 0, "print transport counters on this interval (0 = only at exit)")
	cacheMB := flag.Int64("cachemb", 64, "requester-cache capacity in MB (0 = disable caching)")
	loadgen := flag.Bool("loadgen", false, "drive the deployment with the Zipf workload, then print a latency histogram")
	concurrency := flag.Int("concurrency", 8, "loadgen: concurrent query workers")
	queries := flag.Int("queries", 10000, "loadgen: how many queries to issue")
	qtimeout := flag.Duration("qtimeout", 5*time.Second, "loadgen: per-query deadline")
	repeat := flag.Float64("repeat", 0.3, "loadgen: probability of re-issuing a recent query (temporal locality)")
	adaptEvery := flag.Duration("adapt-interval", 0, "online rebalancing epoch length (0 = adaptation off)")
	fairThresh := flag.Float64("fairness-threshold", 0.83, "fairness index below which the chosen leader rebalances")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	contentOn := flag.Bool("content", false, "enable the content data plane (chunk store, Fetch, byte-shipping moves)")
	contentCacheMB := flag.Int64("content-cachemb", 0, "demand-driven replica cache budget in MB (0 = off; requires -content)")
	cacheAdmit := flag.Int("cache-admit", 0, "demand hits before a fetched doc earns a cache slot (0 = default, 2)")
	docBytes := flag.Int64("docbytes", 0, "shape: bytes per document (0 = catalog default, 4 MB)")
	maxInFlight := flag.Int("maxinflight", 0, "admission bound on concurrently served queries (0 = default)")
	harnessMode := flag.Bool("harness", false, "machine mode: speak the harness JSON protocol on stdin/stdout")
	statsJSON := flag.Bool("stats-json", false, "print stats as one JSON line (harness schema) instead of text")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "p2pnode: pprof:", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	shape := livenet.Shape{
		Documents: *docs, Categories: *cats, Nodes: *nodes,
		Clusters: *clusters, Seed: *seed, DocBytes: *docBytes,
	}
	// The whole birth configuration is one Options struct. A standalone
	// node faces real churn, so it always runs the failure detector.
	opts := livenet.Options{
		MaxInFlight: *maxInFlight,
		CacheBytes:  *cacheMB << 20,
		Membership:  &membership.Config{},
	}
	if *cacheMB == 0 {
		opts.CacheBytes = -1 // historical flag meaning: 0 MB disables caching
	}
	if *adaptEvery > 0 {
		opts.Adaptation = &livenet.AdaptConfig{
			Interval:     *adaptEvery,
			LowThreshold: *fairThresh,
		}
	}
	if *contentOn {
		opts.Content = &livenet.ContentConfig{
			CacheBytes:     *contentCacheMB << 20,
			CacheAdmitHits: *cacheAdmit,
		}
	}
	// Machine mode runs every link through a chaos controller so the
	// orchestrator can inject faults mid-act. Seeded per process: each
	// node owns only its outbound links, so streams never overlap.
	var cn *chaos.Net
	if *harnessMode {
		cn = chaos.New(*seed*1000003 + int64(*id))
		opts.Hooks = livenet.NetHooks{
			Listen: func(nid model.NodeID, addr string) (net.Listener, error) {
				ln, err := net.Listen("tcp", addr)
				if err == nil {
					cn.Register(nid, ln.Addr().String())
				}
				return ln, err
			},
			Dial: cn.DialFrom,
		}
	}
	node, err := livenet.StartNode(shape, model.NodeID(*id), *listen, *bootstrap, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2pnode:", err)
		os.Exit(1)
	}
	// Leave (not just Close) on the way out: peers evict this node
	// immediately instead of waiting out a suspicion timeout.
	defer node.Leave()

	if *harnessMode {
		if err := runMachine(node, cn); err != nil {
			fmt.Fprintln(os.Stderr, "p2pnode: machine:", err)
			node.Leave()
			os.Exit(1)
		}
		return
	}

	if *adaptEvery > 0 {
		fmt.Printf("adaptation on: %v epochs, rebalance below fairness %.2f\n",
			*adaptEvery, *fairThresh)
	}
	fmt.Printf("node %d listening on %s (knows %d peers)\n",
		node.ID(), node.Addr(), node.KnownPeers())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	dump := printStats
	if *statsJSON {
		dump = printStatsJSON
	}
	defer dump(node)

	if *loadgen {
		spec := proto.LoadSpec{
			Queries: *queries, Concurrency: *concurrency, M: *m,
			Repeat: *repeat, HotCategory: -1,
			TimeoutMS: int(*qtimeout / time.Millisecond), Seed: *seed + 99,
		}
		if err := runLoadgen(node, spec, stop); err != nil {
			fmt.Fprintln(os.Stderr, "p2pnode: loadgen:", err)
			os.Exit(1)
		}
		return
	}

	var statsTick <-chan time.Time
	if *statsEvery > 0 {
		st := time.NewTicker(*statsEvery)
		defer st.Stop()
		statsTick = st.C
	}

	if *query < 0 {
		fmt.Println("serving; ctrl-c to exit")
		for {
			select {
			case <-statsTick:
				dump(node)
			case <-stop:
				return
			}
		}
	}

	cat := catalog.CategoryID(*query)
	ticker := time.NewTicker(*every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			out, err := node.Query(cat, *m, 5*time.Second)
			if err != nil {
				fmt.Printf("query category %d: %v (%d partial results)\n", cat, err, len(out.Docs))
				continue
			}
			fmt.Printf("query category %d: %d results in %d hop(s), %v\n",
				cat, len(out.Docs), out.Hops, out.ResponseTime.Round(time.Microsecond))
		case <-statsTick:
			dump(node)
		case <-stop:
			return
		}
	}
}
