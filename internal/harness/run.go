// The orchestrator: runs one Plan end to end against a fleet of real
// p2pnode processes — build, spawn, warm-up load, act sequence with
// kills and convergence tracking, stats scraping, and the BENCH
// artifact. Latency percentiles are computed from the merged raw
// samples of every node (exact cluster-wide quantiles, never averages
// of per-node averages).
package harness

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"p2pshare/internal/chaos/soak"
	"p2pshare/internal/fairness"
	"p2pshare/internal/harness/proto"
	"p2pshare/internal/metrics"
)

// The values every process plan runs at.
const (
	// nodeCacheMB is each node's requester cache (p2pnode -cachemb).
	nodeCacheMB = 8
	// warmupQueries is each node's uncounted warm-up load.
	warmupQueries = 20
	// Each node's act load: actConcurrency query workers asking for actM
	// documents under an actTimeoutMS deadline, and actFetchConcurrency
	// fetch workers under an actFetchTimeoutMS one.
	actConcurrency      = 4
	actM                = 2
	actTimeoutMS        = 5000
	actFetchConcurrency = 2
	actFetchTimeoutMS   = 30000
	// convergeTarget is the fairness (×1000) a TrackConvergence act
	// waits for: livenet.AdaptConfig's default rebalance threshold, 0.83.
	convergeTarget = 830
	// spawnTimeout bounds each process launch (build excluded);
	// defaultActTimeout bounds each act's wait phase per node.
	spawnTimeout      = 30 * time.Second
	defaultActTimeout = 3 * time.Minute
)

// The values every scale plan runs at: a pool of scaleOrigins requesters,
// each warmed with one query, then scaleWorkers concurrent workers ask
// scaleQueries Zipf(scaleZipfS) category queries for one document under
// a scaleQueryTimeout deadline. A link that carries no frame for
// scaleWriterIdle closes its stream, a shorter tail than the default
// 45 s.
const (
	scaleOrigins      = 256
	scaleWorkers      = 16
	scaleQueries      = 2000
	scaleZipfS        = 1.2
	scaleQueryTimeout = 10 * time.Second
	scaleWriterIdle   = 2 * time.Second
)

// RunConfig tunes one Run invocation (not the plan itself).
type RunConfig struct {
	// Out receives progress lines; nil discards them.
	Out io.Writer
	// Seed overrides the plan's seed when non-zero (replay knob).
	Seed int64
	// BinDir, when set, reuses a prebuilt p2pnode binary directory.
	BinDir string
	// actTimeout replaces defaultActTimeout when set (tests shorten it).
	actTimeout time.Duration
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.actTimeout <= 0 {
		c.actTimeout = defaultActTimeout
	}
	return c
}

// pullCounters are the move-shipping pool's outcomes, summed over the
// fleet into a content plan's totals, so a run shows whether moves
// queued for workers or failed.
var pullCounters = []string{
	"transfer_move_docs", "transfer_move_queued", "transfer_move_failures",
}

// Run executes one plan and returns its Result. Soak and scale plans
// run in-process; all others drive the multi-process orchestration.
func Run(p Plan, cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Seed != 0 {
		p.Seed = cfg.Seed
	}
	if p.run != nil {
		return p.run(p, cfg)
	}
	return runProcessPlan(p, cfg)
}

// runSoakPlan bridges a plan to internal/chaos/soak: the scenario's
// invariant checking is the point; the report becomes the Result.
func runSoakPlan(sc soak.Scenario, p Plan, cfg RunConfig) (Result, error) {
	fmt.Fprintf(cfg.Out, "plan %s: soak scenario %s (seed %d)\n", p.Name, sc.Name, p.Seed)
	rep, err := soak.RunScenario(sc, soak.Config{
		Seed: p.Seed, Nodes: p.Nodes, Clusters: p.Clusters,
		Docs: p.Docs, Cats: p.Cats, Out: cfg.Out,
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Plan: p.Name, Overview: p.Overview, Seed: p.Seed, Nodes: p.Nodes,
		Optimized: p.Optimized,
		Seconds:   rep.Elapsed.Seconds(),
		Totals: map[string]float64{
			"queries":        float64(rep.Queries),
			"ok":             float64(rep.Succeeded),
			"violations":     float64(len(rep.Violations)),
			"probe_ok_rate":  rate(rep.ProbeOK, rep.ProbeTotal),
			"success_rate":   rate(rep.Succeeded, rep.Queries),
			"nodes_launched": float64(p.Nodes),
		},
	}
	if len(rep.Violations) > 0 {
		return res, fmt.Errorf("plan %s: %d invariant violations (seed %d): %v",
			p.Name, len(rep.Violations), rep.Seed, rep.Violations)
	}
	return res, nil
}

func rate(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// scrape pulls a stats snapshot from every live node.
func scrape(live []*NodeProc, timeout time.Duration) (map[int]*proto.StatsReport, error) {
	out := make(map[int]*proto.StatsReport, len(live))
	for _, np := range live {
		rsp, err := np.Call(proto.Command{Op: proto.OpStats}, timeout)
		if err != nil {
			return nil, err
		}
		out[np.ID] = rsp.Stats
	}
	return out, nil
}

// counterDelta sums a counter across nodes in `cur` minus the same sum
// in `prev` (nodes missing from prev count from zero).
func counterDelta(prev, cur map[int]*proto.StatsReport, key string) float64 {
	var d int64
	for id, s := range cur {
		d += s.Counters[key]
		if ps, ok := prev[id]; ok {
			d -= ps.Counters[key]
		}
	}
	return float64(d)
}

// maxCounterDelta is the largest single-node delta of a counter — the
// hottest node's share of the fleet-wide movement.
func maxCounterDelta(prev, cur map[int]*proto.StatsReport, key string) float64 {
	var best int64
	for id, s := range cur {
		d := s.Counters[key]
		if ps, ok := prev[id]; ok {
			d -= ps.Counters[key]
		}
		if d > best {
			best = d
		}
	}
	return float64(best)
}

// maxFairness is the fleet's best fairness reading, -1 when none has
// one (only the current leader of an epoch evaluates; a node that has
// not shows no fairness_x1000).
func maxFairness(stats map[int]*proto.StatsReport) int64 {
	best := int64(-1)
	for _, s := range stats {
		if f, ok := s.Counters["fairness_x1000"]; ok && f > best {
			best = f
		}
	}
	return best
}

func runProcessPlan(p Plan, cfg RunConfig) (Result, error) {
	start := time.Now()
	binDir := cfg.BinDir
	if binDir == "" {
		dir, err := os.MkdirTemp("", "harness-*")
		if err != nil {
			return Result{}, err
		}
		defer os.RemoveAll(dir)
		binDir = dir
	}
	fmt.Fprintf(cfg.Out, "plan %s: building p2pnode...\n", p.Name)
	bin, err := BuildNodeBinary(binDir)
	if err != nil {
		return Result{}, err
	}

	r := &Runner{Bin: bin}
	defer r.KillAll()

	// The seed process first (its address bootstraps everyone else),
	// then the rest concurrently.
	fmt.Fprintf(cfg.Out, "plan %s: launching %d node processes...\n", p.Name, p.Nodes)
	seedProc, err := r.Spawn(0, "", p, spawnTimeout)
	if err != nil {
		return Result{}, err
	}
	r.Procs = append(r.Procs, seedProc)
	type spawned struct {
		np  *NodeProc
		err error
	}
	ch := make(chan spawned, p.Nodes-1)
	for id := 1; id < p.Nodes; id++ {
		go func(id int) {
			np, err := r.Spawn(id, seedProc.Addr, p, spawnTimeout)
			ch <- spawned{np, err}
		}(id)
	}
	for i := 1; i < p.Nodes; i++ {
		s := <-ch
		if s.err != nil {
			for j := 0; i+j < p.Nodes-1; j++ {
				if late := <-ch; late.np != nil {
					late.np.Kill()
				}
			}
			return Result{}, s.err
		}
		r.Procs = append(r.Procs, s.np)
	}
	sort.Slice(r.Procs, func(i, j int) bool { return r.Procs[i].ID < r.Procs[j].ID })

	// Spawn returns on a node's ready line, which a joiner prints only
	// once its address book has arrived: the last return is a full fleet.
	fmt.Fprintf(cfg.Out, "plan %s: fleet up\n", p.Name)

	// Uncounted warm-up load: primes connections, caches, and the
	// adaptation monitors; its data points are discarded.
	warmSpec := proto.LoadSpec{
		Queries: warmupQueries, Concurrency: actConcurrency, M: actM,
		HotCategory: -1, TimeoutMS: actTimeoutMS, Seed: p.Seed + 1,
	}
	if err := loadAll(r.Live(), warmSpec, p.Seed, cfg.actTimeout); err != nil {
		return Result{}, fmt.Errorf("warm-up: %w", err)
	}

	prev, err := scrape(r.Live(), 30*time.Second)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Plan: p.Name, Overview: p.Overview, Seed: p.Seed, Nodes: p.Nodes,
		Optimized: p.Optimized,
		Totals:    map[string]float64{"nodes_launched": float64(p.Nodes)},
	}
	var allLat, allFetchLat, bulkLat metrics.Histogram
	var totQ, totOK, totErr float64
	var totFetch, totFetchOK, totFetchBytes float64
	var totLoadSec float64
	convergeBest := -1.0

	for ai, act := range p.Acts {
		am, lat, flat, convergeS, err := runAct(r, p, act, prev, cfg)
		if err != nil {
			return res, fmt.Errorf("act %q: %w", act.Name, err)
		}
		res.Acts = append(res.Acts, ActResult{Name: act.Name, Metrics: am})
		for _, v := range lat {
			allLat.Observe(v)
			if act.FetchesPerNode > 0 {
				// Query latency while bulk transfers compete for the
				// links — the priority-lane data point.
				bulkLat.Observe(v)
			}
		}
		for _, v := range flat {
			allFetchLat.Observe(v)
		}
		totQ += am["queries"]
		totOK += am["ok"]
		totErr += am["errors"]
		totFetch += am["fetch_ok"] + am["fetch_failed"]
		totFetchOK += am["fetch_ok"]
		totFetchBytes += am["fetch_bytes"]
		totLoadSec += am["seconds"]
		if act.TrackConvergence && convergeS >= 0 {
			if convergeBest < 0 || convergeS < convergeBest {
				convergeBest = convergeS
			}
		}
		// The next act's deltas start from this act's end state.
		prev, err = scrape(r.Live(), 30*time.Second)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(cfg.Out, "plan %s: act %d/%d %q: %d queries, p95 %.1fms\n",
			p.Name, ai+1, len(p.Acts), act.Name, int(am["queries"]), am["p95_ms"])
	}

	// Run-level totals from the final fleet state.
	final, err := scrape(r.Live(), 30*time.Second)
	if err != nil {
		return res, err
	}
	var served []float64
	var wireIn, wireOut, hits, misses float64
	var xferIn, xferOut, hashFail float64
	var cacheInstalls float64
	pulls := map[string]float64{}
	for _, s := range final {
		served = append(served, float64(s.Counters["served"]))
		wireIn += float64(s.Counters["wire_bytes_in"])
		wireOut += float64(s.Counters["wire_bytes_out"])
		hits += float64(s.Counters["cache_hit"])
		misses += float64(s.Counters["cache_miss"])
		xferIn += float64(s.Counters["transfer_bytes_in"])
		xferOut += float64(s.Counters["transfer_bytes_out"])
		hashFail += float64(s.Counters["chunk_hash_fail"])
		cacheInstalls += float64(s.Counters["content_cache_installs"])
		for _, k := range pullCounters {
			pulls[k] += float64(s.Counters[k])
		}
	}
	res.Totals["queries"] = totQ
	res.Totals["ok"] = totOK
	res.Totals["errors"] = totErr
	if totQ > 0 {
		res.Totals["error_rate"] = totErr / totQ
	}
	if totLoadSec > 0 {
		res.Totals["qps"] = totQ / totLoadSec
	}
	if allLat.Count() > 0 {
		res.Totals["p50_ms"] = allLat.Quantile(0.5)
		res.Totals["p95_ms"] = allLat.Quantile(0.95)
		res.Totals["p99_ms"] = allLat.Quantile(0.99)
	}
	res.Totals["fairness_jain_served"] = fairness.Jain(served)
	res.Totals["wire_bytes_in"] = wireIn
	res.Totals["wire_bytes_out"] = wireOut
	if totQ > 0 {
		res.Totals["wire_bytes_per_query"] = (wireIn + wireOut) / totQ
	}
	if hits+misses > 0 {
		res.Totals["cache_hit_rate"] = hits / (hits + misses)
	}
	if totFetch > 0 {
		res.Totals["fetches"] = totFetch
		res.Totals["fetch_ok"] = totFetchOK
		res.Totals["fetch_fail_rate"] = (totFetch - totFetchOK) / totFetch
		res.Totals["fetch_bytes"] = totFetchBytes
		res.Totals["transfer_bytes_in"] = xferIn
		res.Totals["transfer_bytes_out"] = xferOut
		res.Totals["chunk_hash_fail"] = hashFail
		if allFetchLat.Count() > 0 {
			res.Totals["fetch_p50_ms"] = allFetchLat.Quantile(0.5)
			res.Totals["fetch_p95_ms"] = allFetchLat.Quantile(0.95)
			res.Totals["fetch_p99_ms"] = allFetchLat.Quantile(0.99)
		}
		if bulkLat.Count() > 0 {
			// Query p95 restricted to acts that ran bulk fetches
			// alongside — the "queries stay fast under bulk" gate.
			res.Totals["bulk_query_p95_ms"] = bulkLat.Quantile(0.95)
		}
		res.Totals["content_cache_installs"] = cacheInstalls
		for k, v := range pulls {
			res.Totals[k] = v
		}
	}
	// Flash-crowd trajectory: a plan with a "steady" and a "spike" act
	// (both fetching) gates on how much the spike degrades fetch tail
	// latency over steady state, and on how concentrated the spike's
	// served bytes were on the hottest origin.
	var steadyP99, spikeP99 float64
	for _, ar := range res.Acts {
		switch ar.Name {
		case "steady":
			steadyP99 = ar.Metrics["fetch_p99_ms"]
		case "spike":
			spikeP99 = ar.Metrics["fetch_p99_ms"]
			if share, ok := ar.Metrics["origin_share"]; ok {
				res.Totals["spike_origin_share"] = share
			}
		}
	}
	if steadyP99 > 0 && spikeP99 > 0 {
		res.Totals["steady_fetch_p99_ms"] = steadyP99
		res.Totals["spike_fetch_p99_ms"] = spikeP99
		res.Totals["spike_p99_over_steady"] = spikeP99 / steadyP99
	}
	res.Totals["adapt_convergence_s"] = convergeBest

	// Clean shutdown; a node that wedged on quit is killed by KillAll.
	for _, np := range r.Live() {
		np.Quit(10 * time.Second)
	}
	res.Seconds = time.Since(start).Seconds()
	return res, nil
}

// loadAll starts the same load shape on every node (per-node seeds) and
// waits for all reports; used for the uncounted warm-up.
func loadAll(live []*NodeProc, spec proto.LoadSpec, seedBase int64, timeout time.Duration) error {
	for _, np := range live {
		s := spec
		s.Seed = seedBase + int64(np.ID)*101
		if _, err := np.Call(proto.Command{Op: proto.OpLoad, Load: &s}, 30*time.Second); err != nil {
			return err
		}
	}
	for _, np := range live {
		if _, err := np.Call(proto.Command{Op: proto.OpWait}, timeout); err != nil {
			return err
		}
	}
	return nil
}

// runAct drives one act: kills, load on every live node, the
// convergence watch, then the merged data points. Returns the act's
// metrics, the raw query and fetch latency samples (for run-level
// percentiles), and the convergence seconds (-1 = not tracked / not
// reached).
func runAct(r *Runner, p Plan, act Act, prev map[int]*proto.StatsReport, cfg RunConfig) (map[string]float64, []float64, []float64, float64, error) {
	// Kills are abrupt (the point): no goodbye, peers must detect them.
	for _, id := range act.KillNodes {
		if id >= 0 && id < len(r.Procs) && r.Procs[id].Alive {
			fmt.Fprintf(cfg.Out, "  act %s: killing node %d\n", act.Name, id)
			r.Procs[id].Kill()
		}
	}
	live := r.Live()
	if len(live) == 0 {
		return nil, nil, nil, -1, fmt.Errorf("no live nodes")
	}

	spec := proto.LoadSpec{
		Queries: act.QueriesPerNode, Concurrency: actConcurrency,
		M: actM, ZipfS: act.ZipfS,
		HotCategory: act.HotCategory, HotFraction: act.HotFraction,
		IntervalMS: act.IntervalMS, TimeoutMS: actTimeoutMS,
		Fetches: act.FetchesPerNode, FetchConcurrency: actFetchConcurrency,
		FetchZipfS: act.FetchZipfS, FetchTimeoutMS: actFetchTimeoutMS,
		FetchHotDoc: act.FetchHotDoc, FetchHotFraction: act.FetchHotFraction,
	}
	loadStart := time.Now()
	for _, np := range live {
		s := spec
		s.Seed = p.Seed + 1000 + int64(np.ID)*101
		if _, err := np.Call(proto.Command{Op: proto.OpLoad, Load: &s}, 30*time.Second); err != nil {
			return nil, nil, nil, -1, err
		}
	}

	// Convergence watch: poll fairness while the load runs. The reading
	// is the time from load start until the fleet's best fairness
	// crosses the target (the leader's post-rebalance evaluation).
	convergeS := -1.0
	if act.TrackConvergence {
		deadline := time.Now().Add(cfg.actTimeout)
		for time.Now().Before(deadline) {
			time.Sleep(500 * time.Millisecond)
			stats, err := scrape(r.Live(), 15*time.Second)
			if err != nil {
				break // node busy finishing the act; the wait below reports real errors
			}
			if maxFairness(stats) >= convergeTarget {
				convergeS = time.Since(loadStart).Seconds()
				break
			}
			running := false
			for _, s := range stats {
				if s.LoadRunning {
					running = true
					break
				}
			}
			if !running {
				break // act load drained without crossing the target
			}
		}
	}

	var lat, fetchLat []float64
	m := map[string]float64{}
	for _, np := range live {
		rsp, err := np.Call(proto.Command{Op: proto.OpWait}, cfg.actTimeout)
		if err != nil {
			return nil, nil, nil, -1, err
		}
		rep := rsp.Load
		m["queries"] += float64(rep.Issued)
		m["ok"] += float64(rep.OK)
		m["errors"] += float64(rep.Timeouts + rep.Rejected + rep.NoRoute + rep.Failed)
		m["timeouts"] += float64(rep.Timeouts)
		m["rejected"] += float64(rep.Rejected)
		if rep.Seconds > m["seconds"] {
			m["seconds"] = rep.Seconds // acts run concurrently across nodes
		}
		lat = append(lat, rep.LatencyMS...)
		m["fetch_ok"] += float64(rep.FetchOK)
		m["fetch_failed"] += float64(rep.FetchFailed)
		m["fetch_bytes"] += float64(rep.FetchBytes)
		fetchLat = append(fetchLat, rep.FetchLatencyMS...)
	}
	var latH, fetchH metrics.Histogram
	for _, v := range lat {
		latH.Observe(v)
	}
	for _, v := range fetchLat {
		fetchH.Observe(v)
	}
	if latH.Count() > 0 {
		m["p50_ms"] = latH.Quantile(0.5)
		m["p95_ms"] = latH.Quantile(0.95)
		m["p99_ms"] = latH.Quantile(0.99)
	}
	if fetchH.Count() > 0 {
		m["fetch_p50_ms"] = fetchH.Quantile(0.5)
		m["fetch_p95_ms"] = fetchH.Quantile(0.95)
		m["fetch_p99_ms"] = fetchH.Quantile(0.99)
	}
	if m["seconds"] > 0 {
		m["qps"] = m["queries"] / m["seconds"]
		if m["fetch_bytes"] > 0 {
			m["fetch_mbps"] = m["fetch_bytes"] / (1 << 20) / m["seconds"]
		}
	}
	cur, err := scrape(r.Live(), 30*time.Second)
	if err == nil {
		m["wire_bytes_in"] = counterDelta(prev, cur, "wire_bytes_in")
		m["wire_bytes_out"] = counterDelta(prev, cur, "wire_bytes_out")
		hits := counterDelta(prev, cur, "cache_hit")
		lookups := hits + counterDelta(prev, cur, "cache_miss")
		if lookups > 0 {
			m["cache_hit_rate"] = hits / lookups
		}
		m["fairness_x1000"] = float64(maxFairness(cur))
		if act.FetchesPerNode > 0 {
			// Origin concentration: the busiest holder's share of the
			// act's served transfer bytes. 1/N is perfectly spread; near
			// 1.0 means one origin served the whole crowd — the reading
			// demand-driven replication is meant to push down.
			total := counterDelta(prev, cur, "transfer_bytes_out")
			m["transfer_bytes_out"] = total
			if total > 0 {
				m["origin_share"] = maxCounterDelta(prev, cur, "transfer_bytes_out") / total
			}
			m["cache_installs"] = counterDelta(prev, cur, "content_cache_installs")
			// Documents adaptation's moves shipped during the act: moves
			// landing mid-spike compete with the crowd for the links.
			m["move_docs"] = counterDelta(prev, cur, "transfer_move_docs")
		}
	}
	if act.TrackConvergence {
		m["converge_s"] = convergeS
	}
	return m, lat, fetchLat, convergeS, nil
}
