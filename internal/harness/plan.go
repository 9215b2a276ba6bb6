// Plan, Act, Result, and the baseline comparison: the declarative side
// of the harness. A plan states up front what it measures and which of
// those data points it is optimizing (with tolerances), so every run —
// local or CI — produces the same machine-readable BENCH_<plan>.json
// and regressions are a diff, not an opinion.
package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Objective is one tracked data point of a plan. Goal says which
// direction is better; the tolerances say how much worse than the
// committed baseline a run may be before it fails. Zero tolerances make
// the metric report-only (tracked in the artifact, never gating).
type Objective struct {
	// Metric is a key of Result.Totals.
	Metric string `json:"metric"`
	// Goal is "min" (smaller is better: latency, bytes) or "max"
	// (bigger is better: fairness, hit rate, qps).
	Goal string `json:"goal"`
	// RelTol is the allowed relative slack (0.25 = 25% worse than
	// baseline passes); AbsTol is added on top, in the metric's unit —
	// it keeps near-zero baselines from rejecting noise.
	RelTol float64 `json:"rel_tol,omitempty"`
	AbsTol float64 `json:"abs_tol,omitempty"`
}

// Act is one named phase of load after warm-up. Counts, not durations,
// size it (see proto.LoadSpec). Zero-valued fault/churn fields make it
// a plain load act.
type Act struct {
	Name string `json:"name"`
	// QueriesPerNode and Concurrency shape each node's LoadSpec.
	QueriesPerNode int `json:"queries_per_node"`
	Concurrency    int `json:"concurrency"`
	// M, ZipfS, Repeat, HotCategory, HotFraction, IntervalMS, TimeoutMS
	// pass through to the LoadSpec (HotCategory -1 = off).
	M           int     `json:"m"`
	ZipfS       float64 `json:"zipf_s,omitempty"`
	Repeat      float64 `json:"repeat,omitempty"`
	HotCategory int     `json:"hot_category"`
	HotFraction float64 `json:"hot_fraction,omitempty"`
	IntervalMS  int     `json:"interval_ms,omitempty"`
	TimeoutMS   int     `json:"timeout_ms,omitempty"`
	// FetchesPerNode adds a bulk workload alongside the queries: each
	// node runs this many whole-document fetches on FetchConcurrency
	// workers, documents sampled rank-Zipf with FetchZipfS (> 1; lower
	// means uniform). Requires Plan.Content.
	FetchesPerNode   int     `json:"fetches_per_node,omitempty"`
	FetchConcurrency int     `json:"fetch_concurrency,omitempty"`
	FetchZipfS       float64 `json:"fetch_zipf_s,omitempty"`
	FetchTimeoutMS   int     `json:"fetch_timeout_ms,omitempty"`
	// FetchHotDoc + FetchHotFraction aim that fraction of the fetches at
	// one document — the single-document flash crowd (FetchHotFraction 0
	// disables; see proto.LoadSpec).
	FetchHotDoc      int     `json:"fetch_hot_doc,omitempty"`
	FetchHotFraction float64 `json:"fetch_hot_fraction,omitempty"`
	// KillNodes are hard-killed before the act's load; RestartNodes are
	// brought back (same id, fresh port) before it.
	KillNodes    []int `json:"kill_nodes,omitempty"`
	RestartNodes []int `json:"restart_nodes,omitempty"`
	// Chaos, when non-nil, is applied on ChaosNodes (all live nodes if
	// empty) before the load and cleared after the act.
	Chaos      *ActChaos `json:"chaos,omitempty"`
	ChaosNodes []int     `json:"chaos_nodes,omitempty"`
	// TrackConvergence watches the fleet's fairness during this act and
	// records how long the leader takes to push it over the plan's
	// ConvergeTarget (the §6.1 adaptation-convergence data point).
	TrackConvergence bool `json:"track_convergence,omitempty"`
}

// ActChaos mirrors proto.ChaosSpec in plan JSON.
type ActChaos struct {
	Drop      float64 `json:"drop,omitempty"`
	Corrupt   float64 `json:"corrupt,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	DelayMS   int     `json:"delay_ms,omitempty"`
	JitterMS  int     `json:"jitter_ms,omitempty"`
}

// Plan is one scenario: a deployment shape, per-node configuration, the
// act sequence, and the declared objectives.
type Plan struct {
	Name     string `json:"name"`
	Overview string `json:"overview"`
	// Optimized declares the tracked data points and their gates.
	Optimized []Objective `json:"optimized"`

	// Deployment shape (every process must agree on these).
	Nodes    int   `json:"nodes"`
	Clusters int   `json:"clusters"`
	Docs     int   `json:"docs"`
	Cats     int   `json:"cats"`
	Seed     int64 `json:"seed"`

	// Content enables the content data plane on every node (chunk
	// store, Fetch, byte-shipping moves); DocBytes sizes each document
	// (0 = the catalog default, 4 MB — oversized for harness runs).
	Content  bool  `json:"content,omitempty"`
	DocBytes int64 `json:"doc_bytes,omitempty"`
	// ContentCacheMB budgets each node's demand-driven replica cache
	// (livenet.ContentConfig.CacheBytes); 0 leaves caching off. Only
	// meaningful with Content.
	ContentCacheMB int64 `json:"content_cache_mb,omitempty"`

	// Per-node configuration (0 = the node's default).
	MaxInFlight       int     `json:"max_inflight,omitempty"`
	CacheMB           int64   `json:"cache_mb,omitempty"` // <0 disables caching
	AdaptEveryMS      int     `json:"adapt_every_ms,omitempty"`
	FairnessThreshold float64 `json:"fairness_threshold,omitempty"`
	// ConvergeTarget is the fairness (×1000) a TrackConvergence act
	// waits for; 0 means the plan's FairnessThreshold.
	ConvergeTarget int64 `json:"converge_target,omitempty"`

	// Warmup sizes the uncounted warm-up load per node (0 = a small
	// default); its data points are discarded.
	Warmup int `json:"warmup,omitempty"`

	Acts []Act `json:"acts"`

	// Soak, when set, bridges the plan to a chaos soak scenario
	// (internal/chaos/soak) instead of the process orchestrator: the
	// scenario runs in-process and its report becomes the Result.
	Soak string `json:"soak,omitempty"`
}

// ActResult is one act's data points.
type ActResult struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// Result is one plan run: the per-act trajectory plus the run-level
// totals the objectives gate on.
type Result struct {
	Plan      string             `json:"plan"`
	Overview  string             `json:"overview,omitempty"`
	Seed      int64              `json:"seed"`
	Nodes     int                `json:"nodes"`
	Started   string             `json:"started,omitempty"`
	Seconds   float64            `json:"seconds"`
	Optimized []Objective        `json:"optimized,omitempty"`
	Acts      []ActResult        `json:"acts,omitempty"`
	Totals    map[string]float64 `json:"totals"`
}

// WriteFile writes the result as indented JSON (the BENCH artifact).
func (r Result) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResult loads a BENCH artifact (run or committed baseline).
func ReadResult(path string) (Result, error) {
	var r Result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("harness: parse %s: %w", path, err)
	}
	return r, nil
}

// Regression is one objective the current run failed against baseline.
type Regression struct {
	Metric   string
	Goal     string
	Baseline float64
	Current  float64
	Allowed  float64 // the gate value the current reading crossed
}

func (r Regression) String() string {
	return fmt.Sprintf("%s (%s): baseline %.4g, current %.4g, allowed %.4g",
		r.Metric, r.Goal, r.Baseline, r.Current, r.Allowed)
}

// Compare gates the current run against a committed baseline using the
// plan's objectives. A metric missing from either side is skipped (the
// trajectory may grow new data points before baselines catch up), as is
// an unset convergence reading (-1) in the baseline — but a run that
// STOPS converging while the baseline did converge is a regression.
func Compare(objectives []Objective, baseline, current Result) []Regression {
	var regs []Regression
	for _, o := range objectives {
		if o.RelTol == 0 && o.AbsTol == 0 {
			continue // report-only
		}
		base, okB := baseline.Totals[o.Metric]
		cur, okC := current.Totals[o.Metric]
		if !okB || !okC {
			continue
		}
		// Convergence sentinel: -1 means "not measured / did not
		// converge". Baseline -1 gates nothing; current -1 against a
		// measured baseline is the worst possible reading.
		if base < 0 {
			continue
		}
		if cur < 0 {
			regs = append(regs, Regression{o.Metric, o.Goal, base, cur, base})
			continue
		}
		slack := base*o.RelTol + o.AbsTol
		switch o.Goal {
		case "max":
			if allowed := base - slack; cur < allowed {
				regs = append(regs, Regression{o.Metric, o.Goal, base, cur, allowed})
			}
		default: // "min"
			if allowed := base + slack; cur > allowed {
				regs = append(regs, Regression{o.Metric, o.Goal, base, cur, allowed})
			}
		}
	}
	return regs
}

// Summary renders the run-level totals in a stable order (for logs).
func (r Result) Summary() string {
	keys := make([]string, 0, len(r.Totals))
	for k := range r.Totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("plan %s (%d nodes, seed %d, %.1fs):", r.Plan, r.Nodes, r.Seed, r.Seconds)
	for _, k := range keys {
		out += fmt.Sprintf("\n  %-24s %.4g", k, r.Totals[k])
	}
	return out
}
