// The built-in plan registry: every scenario the perf trajectory
// tracks, each declaring up front what it measures and which data
// points gate against the committed baseline. Tolerances are sized for
// shared CI runners — latency gates are loose (machine noise), count
// and rate gates tight (they are scheduling-independent by the
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
		CacheMB: 8, AdaptEveryMS: 1000, FairnessThreshold: 0.83,
		ConvergeTarget: 830,
		Warmup:         20,
		Acts: []Act{
			{
				Name: "steady", QueriesPerNode: 50, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
			},
			{
				Name: "skew", QueriesPerNode: 60, Concurrency: 4, M: 2,
				ZipfS: 1.1, HotCategory: 2, HotFraction: 0.5,
				IntervalMS: 20, TimeoutMS: 5000, TrackConvergence: true,
			},
		},
	}
}

// Zipf sweeps the demand-skew knob: the same deployment under
// near-uniform, classic, and extreme Zipf exponents. The trajectory of
// interest is how tail latency and fairness hold as load concentrates.
func Zipf() Plan {
	p := Plan{
		Name: "zipf",
		Overview: "Demand-skew sweep: s=0.4 → 1.0 → 1.4 over one deployment; " +
			"tracks tail latency and serving fairness as load concentrates.",
		Optimized: []Objective{
			{Metric: "error_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
			{Metric: "p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 100},
			{Metric: "fairness_jain_served", Goal: "max", RelTol: 0.25},
			{Metric: "qps", Goal: "max"},
		},
		Nodes: 24, Clusters: 4, Docs: 800, Cats: 16, Seed: 11,
		CacheMB: 16, AdaptEveryMS: 1000, FairnessThreshold: 0.83,
		Warmup: 20,
	}
	for _, s := range []float64{0.4, 1.0, 1.4} {
		p.Acts = append(p.Acts, Act{
			Name: fmt.Sprintf("zipf-%.1f", s), QueriesPerNode: 60,
			Concurrency: 4, M: 2, ZipfS: s, HotCategory: -1, TimeoutMS: 5000,
		})
	}
	return p
}

// FlashCrowd is the §5 stress: steady state, then a crowd chasing one
// category, with convergence tracked while the adaptation layer chases
// the moved demand.
func FlashCrowd() Plan {
	return Plan{
		Name: "flashcrowd",
		Overview: "Flash crowd: steady load, then 70% of demand slams one " +
			"category; tracks how fast adaptation restores fairness.",
		Optimized: []Objective{
			{Metric: "error_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
			{Metric: "p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 100},
			{Metric: "adapt_convergence_s", Goal: "min", RelTol: 2.0, AbsTol: 15},
			{Metric: "fairness_jain_served", Goal: "max", RelTol: 0.25},
		},
		Nodes: 24, Clusters: 4, Docs: 800, Cats: 16, Seed: 13,
		CacheMB: 16, AdaptEveryMS: 1000, FairnessThreshold: 0.83, ConvergeTarget: 830,
		Warmup: 20,
		Acts: []Act{
			{
				Name: "steady", QueriesPerNode: 50, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
			},
			{
				Name: "crowd", QueriesPerNode: 80, Concurrency: 4, M: 2,
				HotCategory: 3, HotFraction: 0.7, IntervalMS: 20,
				TimeoutMS: 5000, TrackConvergence: true,
			},
		},
	}
}

// Churn kills a quarter of the fleet mid-run, then brings it back: the
// data points are service quality through the failures and after the
// rejoin.
func Churn() Plan {
	return Plan{
		Name: "churn",
		Overview: "Churn: steady load, then 6 of 24 nodes hard-killed under " +
			"load, then restarted; tracks error rate and tail latency through " +
			"failure and recovery.",
		Optimized: []Objective{
			{Metric: "error_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.10},
			{Metric: "p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 200},
			{Metric: "fairness_jain_served", Goal: "max", RelTol: 0.3},
		},
		Nodes: 24, Clusters: 4, Docs: 800, Cats: 16, Seed: 17,
		CacheMB: 16, Warmup: 20,
		Acts: []Act{
			{
				Name: "steady", QueriesPerNode: 40, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
			},
			{
				Name: "failures", QueriesPerNode: 50, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
				KillNodes: []int{19, 20, 21, 22, 23, 18},
			},
			{
				Name: "recovery", QueriesPerNode: 40, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
				RestartNodes: []int{18, 19, 20, 21, 22, 23},
			},
		},
	}
}

// Lossy runs the steady workload over a degraded network (drop +
// corruption + jitter everywhere) — the wire protocol's resilience as a
// tracked data point instead of a pass/fail test.
func Lossy() Plan {
	return Plan{
		Name: "lossy",
		Overview: "Degraded network: 3% drop, 0.5% corruption, 5±10ms jitter " +
			"on every link during the second act; tracks how much service " +
			"quality survives.",
		Optimized: []Objective{
			{Metric: "error_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.10},
			{Metric: "p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 300},
		},
		Nodes: 20, Clusters: 4, Docs: 600, Cats: 12, Seed: 19,
		CacheMB: 8, Warmup: 20,
		Acts: []Act{
			{
				Name: "clean", QueriesPerNode: 40, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
			},
			{
				Name: "lossy", QueriesPerNode: 50, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 8000,
				Chaos: &ActChaos{Drop: 0.03, Corrupt: 0.005, DelayMS: 5, JitterMS: 10},
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
		CacheMB: 8, Content: true, DocBytes: 128 << 10,
		Warmup: 20,
		Acts: []Act{
			{
				Name: "baseline", QueriesPerNode: 50, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
			},
			{
				Name: "bulk", QueriesPerNode: 50, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
				FetchesPerNode: 6, FetchConcurrency: 2, FetchZipfS: 1.2,
				FetchTimeoutMS: 30000,
			},
		},
	}
}

// Flashbulk is the content-plane flash crowd: a steady fetch mix, then
// nearly every fetch in the fleet slams ONE document (a ~100x jump in
// that document's demand). With demand-driven replication on, repeat
// requesters cache the document and overloaded holders push it at
// under-loaded members, so the spike's tail latency must stay within a
// small factor of steady state and the origin holder's share of served
// bytes must flatten instead of absorbing the whole crowd.
func Flashbulk() Plan {
	return Plan{
		Name: "flashbulk",
		Overview: "Single-document flash crowd on the content plane: steady " +
			"Zipf fetches, then 95% of all fetches hit one document; " +
			"demand-driven replica caching and holder push-replication are " +
			"what keep the spike's fetch p99 near steady state and spread " +
			"the served bytes off the origin holders.",
		Optimized: []Objective{
			{Metric: "error_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
			{Metric: "fetch_fail_rate", Goal: "min", RelTol: 1.0, AbsTol: 0.05},
			// The tentpole gates: spike fetch p99 relative to steady state,
			// and how concentrated the spike's bytes were on one origin.
			{Metric: "spike_p99_over_steady", Goal: "min", RelTol: 1.0, AbsTol: 1.0},
			{Metric: "spike_origin_share", Goal: "min", RelTol: 0.5, AbsTol: 0.15},
			{Metric: "fetch_p95_ms", Goal: "min", RelTol: 2.0, AbsTol: 2000},
			// Tracked but not gated: absolute latencies are machine noise;
			// the replication counters prove the machinery engaged.
			{Metric: "spike_fetch_p99_ms", Goal: "min"},
			{Metric: "steady_fetch_p99_ms", Goal: "min"},
			{Metric: "content_cache_installs", Goal: "max"},
			{Metric: "replicate_installs", Goal: "max"},
			{Metric: "chunk_hash_fail", Goal: "min"},
		},
		Nodes: 20, Clusters: 4, Docs: 400, Cats: 12, Seed: 29,
		CacheMB: 8, Content: true, DocBytes: 128 << 10, ContentCacheMB: 16,
		AdaptEveryMS: 500, FairnessThreshold: 0.83,
		Warmup: 20,
		Acts: []Act{
			{
				Name: "steady", QueriesPerNode: 30, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
				FetchesPerNode: 6, FetchConcurrency: 2, FetchZipfS: 1.2,
				FetchTimeoutMS: 30000,
			},
			{
				Name: "spike", QueriesPerNode: 30, Concurrency: 4, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
				FetchesPerNode: 12, FetchConcurrency: 2,
				FetchHotDoc: 333, FetchHotFraction: 0.95,
				FetchTimeoutMS: 30000,
			},
		},
	}
}

// soakPlans bridges every scripted chaos-soak scenario into the plan
// registry, so `p2pbench -plan soak-partition-adapt` runs the same
// invariant-checked scenario the chaos CI job runs, with its report
// folded into the trajectory format.
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
			Soak: sc.Name,
		})
	}
	return out
}

// Plans returns every built-in plan, smoke first.
func Plans() []Plan {
	ps := []Plan{Smoke(), Zipf(), FlashCrowd(), Churn(), Lossy(), Bulkmix(), Flashbulk()}
	ps = append(ps, soakPlans()...)
	return ps
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
