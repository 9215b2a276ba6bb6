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
// goroutines drive the deployment with the Zipf workload of
// internal/workload (temporal locality tunable with -repeat) for
// -duration, then print a latency histogram with p50/p95/p99 and the
// requester-cache hit share:
//
//	p2pnode -id 3 -bootstrap 127.0.0.1:7000 -loadgen \
//	        -concurrency 32 -duration 30s -repeat 0.4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on -pprof
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pshare/internal/catalog"
	"p2pshare/internal/chaos"
	"p2pshare/internal/livenet"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/workload"
)

// printStats dumps the node's transport/protocol counters and its query
// latency histogram in a stable order.
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
	if lat := node.QueryLatency(); lat.Count() > 0 {
		fmt.Printf("query latency (ms): %s\n", lat.PercentileSummary())
	}
	if batches := node.BatchSizes(); batches.Count() > 0 {
		fmt.Printf("write batches (msgs/flush): %s\n", batches.Summary())
	}
	if tput := node.TransferThroughput(); tput.Count() > 0 {
		fmt.Printf("transfer throughput (KB/s, %d transfers): p50 %.0f p95 %.0f p99 %.0f\n",
			tput.Count(), tput.Quantile(0.5), tput.Quantile(0.95), tput.Quantile(0.99))
	}
}

// runLoadgen drives the deployment from this node with concurrent
// workers issuing popularity-faithful queries, then reports latency
// percentiles, a latency distribution, and the cache's contribution.
func runLoadgen(node *livenet.Node, concurrency int, duration, qtimeout time.Duration, m int, repeatP float64, seed int64, stop <-chan os.Signal) error {
	gen, err := workload.NewGenerator(node.Instance(), m, seed+99)
	if err != nil {
		return err
	}
	gen.WithRepeat(repeatP, 32)
	var genMu sync.Mutex // Generator is not safe for concurrent use

	// Zero-hop (cache) answers and network answers are tracked apart so
	// the cache's latency effect is visible, not averaged away.
	all := &metrics.SyncHistogram{}
	network := &metrics.SyncHistogram{}
	local := &metrics.SyncHistogram{}
	var issued, ok, timeouts, rejected, failed atomic.Int64

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	fmt.Printf("loadgen: %d workers for %v (m=%d, repeat=%.2f)\n",
		concurrency, duration, m, repeatP)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				genMu.Lock()
				q := gen.Next()
				genMu.Unlock()
				qctx, qcancel := context.WithTimeout(ctx, qtimeout)
				out, err := node.QueryContext(qctx, q.Category, q.M)
				qcancel()
				if ctx.Err() != nil && err != nil {
					return // run over; a cut-short query is not a data point
				}
				issued.Add(1)
				switch {
				case err == nil:
					ok.Add(1)
					all.ObserveDuration(out.ResponseTime)
					if out.Hops == 0 {
						local.ObserveDuration(out.ResponseTime)
					} else {
						network.ObserveDuration(out.ResponseTime)
					}
				case errors.Is(err, livenet.ErrTimeout):
					timeouts.Add(1)
				case errors.Is(err, livenet.ErrOverloaded):
					rejected.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := issued.Load()
	fmt.Printf("\nloadgen: %d queries in %v (%.1f qps): %d ok, %d timeout, %d rejected, %d failed\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		ok.Load(), timeouts.Load(), rejected.Load(), failed.Load())
	if all.Count() > 0 {
		fmt.Printf("latency (ms): %s\n", all.PercentileSummary())
		fmt.Print(all.Distribution(12, 40))
	}
	s := node.Stats()
	hits, misses := s["cache_hit"], s["cache_miss"]
	if hits+misses > 0 {
		fmt.Printf("requester cache: %d hits / %d lookups (%.1f%%)\n",
			hits, hits+misses, 100*float64(hits)/float64(hits+misses))
	}
	if local.Count() > 0 && network.Count() > 0 {
		fmt.Printf("zero-hop (cache) p50 %.2fms vs network p50 %.2fms over %d / %d answers\n",
			local.Quantile(0.5), network.Quantile(0.5), local.Count(), network.Count())
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
	duration := flag.Duration("duration", 10*time.Second, "loadgen: how long to generate load")
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
	syncAddr := flag.String("sync", "", "harness barrier service address (machine mode)")
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
	// The whole birth configuration is one Options struct.
	opts := livenet.Options{
		MaxInFlight: *maxInFlight,
		CacheBytes:  *cacheMB << 20,
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
		if err := runMachine(node, cn, *syncAddr); err != nil {
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
		if err := runLoadgen(node, *concurrency, *duration, *qtimeout, *m, *repeat, *seed, stop); err != nil {
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
			fmt.Printf("query category %d: %d results in %d hop(s)\n", cat, len(out.Docs), out.Hops)
		case <-statsTick:
			dump(node)
		case <-stop:
			return
		}
	}
}
