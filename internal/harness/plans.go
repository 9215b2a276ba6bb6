// The built-in plan registry: the three process plans CI runs against a
// committed baseline (smoke, bulkmix, flashbulk), one bridge per chaos
// soak scenario and the three in-process scale plans, each declaring up
// front what it measures and which data points gate. Tolerances are
// sized for shared CI runners — latency gates are loose (machine noise),
// count and rate gates tight (they are scheduling-independent by the
// count-based act design).
package harness

import (
	"fmt"
	"sort"

	"p2pshare/internal/chaos/soak"
)

// smokeObjectives gate the per-PR smoke run.
func smokeObjectives() []Objective {
	return []Objective{
		{Metric: "error_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
		{Metric: "p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 100},
		{Metric: "p99_ms", Goal: "min", RelTol: 3.0, AbsTol: 250},
		{Metric: "fairness_jain_served", Goal: "max", RelTol: 0.25},
		{Metric: "wire_bytes_per_query", Goal: "min", RelTol: 1.5, AbsTol: 50_000},
		{Metric: "adapt_convergence_s", Goal: "min", RelTol: 2.0, AbsTol: 15},
		// Tracked but not gated: too machine-dependent to block a PR.
		{Metric: "qps", Goal: "max"},
		{Metric: "p50_ms", Goal: "min"},
		{Metric: "cache_hit_rate", Goal: "max"},
	}
}

// Smoke is the per-PR plan: small enough for CI, big enough to exercise
// every layer — 20+ real processes, warm-up, a steady act, and a skewed
// act paced across adaptation epochs so convergence is a data point.
func Smoke() Plan {
	return Plan{
		Name: "smoke",
		Overview: "Per-PR canary: 22 processes, steady load then Zipf skew " +
			"with adaptation on; optimizes tail latency, fairness, wire cost, " +
			"and adaptation convergence.",
		Optimized: smokeObjectives(),
		Nodes:     22, Clusters: 4, Docs: 600, Cats: 12, Seed: 7,
		AdaptEveryMS: 1000,
		Acts: []Act{
			{Name: "steady", QueriesPerNode: 50, HotCategory: -1},
			{
				Name: "skew", QueriesPerNode: 60,
				ZipfS: 1.1, HotCategory: 2, HotFraction: 0.5,
				IntervalMS: 20, TrackConvergence: true,
			},
		},
	}
}

// Bulkmix is the content-plane stress: whole-document fetches under
// Zipf skew running alongside the query workload. The data points of
// interest are fetch completion (manifest-verified) and whether query
// tail latency survives megabytes of bulk frames on the same links —
// the priority-lane separation in the batch writer is what's on trial.
func Bulkmix() Plan {
	return Plan{
		Name: "bulkmix",
		Overview: "Content data plane under load: 20 processes, a query-only " +
			"baseline act, then Zipf-skewed whole-document fetches concurrent " +
			"with queries; tracks fetch tail latency, fetch failure rate, and " +
			"query p95 under bulk traffic.",
		Optimized: []Objective{
			{Metric: "error_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
			{Metric: "fetch_fail_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
			{Metric: "fetch_p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 2000},
			{Metric: "bulk_query_p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 250},
			// Tracked but not gated: throughput is machine-dependent.
			{Metric: "fetch_p50_ms", Goal: "min"},
			{Metric: "fetch_bytes", Goal: "max"},
			{Metric: "chunk_hash_fail", Goal: "min"},
		},
		Nodes: 20, Clusters: 4, Docs: 400, Cats: 12, Seed: 23,
		Content: true, DocBytes: 128 << 10,
		Acts: []Act{
			{Name: "baseline", QueriesPerNode: 50, HotCategory: -1},
			{
				Name: "bulk", QueriesPerNode: 50, HotCategory: -1,
				FetchesPerNode: 6, FetchZipfS: 1.2,
			},
		},
	}
}

// Flashbulk is the content-plane flash crowd: a steady fetch mix, then
// nearly every fetch in the fleet slams ONE document (a ~100x jump in
// that document's demand). With demand-driven cache admission on,
// repeat requesters install the document and start serving it, so the
// spike's tail latency must stay within a small factor of steady state
// and the origin holder's share of served bytes must flatten instead of
// absorbing the whole crowd.
func Flashbulk() Plan {
	return Plan{
		Name: "flashbulk",
		Overview: "Single-document flash crowd on the content plane: steady " +
			"Zipf fetches, then 95% of all fetches hit one document; " +
			"demand-driven replica caching is what keeps the spike's fetch " +
			"p99 near steady state and spreads the served bytes off the " +
			"origin holders.",
		Optimized: []Objective{
			{Metric: "error_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
			{Metric: "fetch_fail_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
			// The tentpole gates: spike fetch p99 relative to steady state,
			// and how concentrated the spike's bytes were on one origin.
			{Metric: "spike_p99_over_steady", Goal: "min", RelTol: 1.0, AbsTol: 1.0},
			{Metric: "spike_origin_share", Goal: "min", RelTol: 0.5, AbsTol: 0.15},
			{Metric: "fetch_p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 2000},
			// Tracked but not gated: absolute latencies are machine noise;
			// the cache installs prove the replication engaged.
			{Metric: "spike_fetch_p99_ms", Goal: "min"},
			{Metric: "steady_fetch_p99_ms", Goal: "min"},
			{Metric: "content_cache_installs", Goal: "max"},
			{Metric: "chunk_hash_fail", Goal: "min"},
		},
		Nodes: 20, Clusters: 4, Docs: 400, Cats: 12, Seed: 29,
		Content: true, DocBytes: 128 << 10, ContentCacheMB: 16,
		AdaptEveryMS: 500,
		Acts: []Act{
			{
				Name: "steady", QueriesPerNode: 30, HotCategory: -1,
				FetchesPerNode: 6, FetchZipfS: 1.2,
			},
			{
				Name: "spike", QueriesPerNode: 30, HotCategory: -1,
				FetchesPerNode: 12, FetchHotDoc: 333, FetchHotFraction: 0.95,
			},
		},
	}
}

// soakPlans bridges every scripted chaos-soak scenario into the plan
// registry, so `p2pbench -plan soak-partition-adapt` runs the same
// invariant-checked scenario `go test ./internal/chaos/soak` runs, with
// its report folded into the trajectory format.
func soakPlans() []Plan {
	var out []Plan
	for _, sc := range soak.Scenarios() {
		out = append(out, Plan{
			Name:     "soak-" + sc.Name,
			Overview: "Chaos soak bridge: " + sc.Desc,
			Optimized: []Objective{
				{Metric: "violations", Goal: "min", AbsTol: 0.5}, // any violation fails
				{Metric: "probe_ok_rate", Goal: "max", RelTol: 0.5},
				{Metric: "success_rate", Goal: "max"},
			},
			Nodes: 12, Clusters: 3, Docs: 360, Cats: 9, Seed: 21,
			run: func(p Plan, cfg RunConfig) (Result, error) {
				return runSoakPlan(sc, p, cfg)
			},
		})
	}
	return out
}

// scalePlans are the paper-scale rung (§4.4 argues for 20 000 nodes in
// 100 clusters): every node of the deployment runs live in this process
// over the memnet fabric. Clusters grow with the population, each node
// holds two documents on average, and each cluster five categories.
// Query rate and latency move by 2x between runs on a shared machine,
// and heap and RSS follow the Go runtime as much as the protocol, so
// only the scheduling-independent readings gate.
func scalePlans() []Plan {
	var out []Plan
	for _, s := range []struct {
		name                        string
		nodes, clusters, docs, cats int
	}{
		{"scale-1k", 1000, 10, 2000, 50},
		{"scale-5k", 5000, 50, 10000, 250},
		{"scale-10k", 10000, 100, 20000, 500},
	} {
		out = append(out, Plan{
			Name: s.name,
			Overview: fmt.Sprintf("Scale rung: %d live nodes in %d clusters in-process "+
				"over memnet, %d Zipf category queries from a warmed %d-origin pool "+
				"with the requester cache off; gates errors, idle goroutines per "+
				"node and frames per query. Goroutines and heap per node are read "+
				"after boot and again after the timed phase, with the stack in use "+
				"(the _end readings and stack_inuse_mb, reported only).",
				s.nodes, s.clusters, scaleQueries, scaleOrigins),
			Optimized: []Objective{
				{Metric: "errors", Goal: "min", AbsTol: 0.5},
				{Metric: "goroutines_per_node", Goal: "min", AbsTol: 0.1},
				{Metric: "frames_per_query", Goal: "min", RelTol: 0.1},
				// Tracked but not gated: machine noise.
				{Metric: "qps", Goal: "max"},
				{Metric: "p50_ms", Goal: "min"},
				{Metric: "p95_ms", Goal: "min"},
				{Metric: "p99_ms", Goal: "min"},
				{Metric: "startup_s", Goal: "min"},
				{Metric: "heap_per_node_kb", Goal: "min"},
				{Metric: "rss_mb", Goal: "min"},
				{Metric: "goroutines_end_per_node", Goal: "min"},
				{Metric: "heap_end_per_node_kb", Goal: "min"},
				{Metric: "stack_inuse_mb", Goal: "min"},
			},
			Nodes: s.nodes, Clusters: s.clusters, Docs: s.docs, Cats: s.cats, Seed: 51,
			run: func(p Plan, cfg RunConfig) (Result, error) {
				return runScalePlan(p, cfg, scaleQueries)
			},
		})
	}
	return out
}

// Plans returns every built-in plan, smoke first.
func Plans() []Plan {
	ps := []Plan{Smoke(), Bulkmix(), Flashbulk()}
	ps = append(ps, soakPlans()...)
	return append(ps, scalePlans()...)
}

// LookupPlan finds a plan by name.
func LookupPlan(name string) (Plan, error) {
	var names []string
	for _, p := range Plans() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return Plan{}, fmt.Errorf("harness: unknown plan %q (have %v)", name, names)
}
