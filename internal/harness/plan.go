// Plan, Act, Result, and the baseline comparison: the declarative side
// of the harness. A plan states up front what it measures and which of
// those data points it is optimizing (with tolerances), so every run —
// local or CI — produces the same machine-readable BENCH_<plan>.json
// and regressions are a diff, not an opinion.
package harness

import (
	"encoding/json"
	"fmt"
	"math"
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
// size it (see proto.LoadSpec). Every act runs its queries on
// actConcurrency workers per node and its fetches on
// actFetchConcurrency; an act without KillNodes is a plain load act.
type Act struct {
	Name           string `json:"name"`
	QueriesPerNode int    `json:"queries_per_node"`
	// ZipfS, HotCategory, HotFraction and IntervalMS pass through to the
	// LoadSpec (HotCategory -1 = off).
	ZipfS       float64 `json:"zipf_s,omitempty"`
	HotCategory int     `json:"hot_category"`
	HotFraction float64 `json:"hot_fraction,omitempty"`
	IntervalMS  int     `json:"interval_ms,omitempty"`
	// FetchesPerNode adds a bulk workload alongside the queries: each
	// node runs this many whole-document fetches, documents sampled
	// rank-Zipf with FetchZipfS (> 1; lower means uniform). Requires
	// Plan.Content.
	FetchesPerNode int     `json:"fetches_per_node,omitempty"`
	FetchZipfS     float64 `json:"fetch_zipf_s,omitempty"`
	// FetchHotDoc + FetchHotFraction aim that fraction of the fetches at
	// one document — the single-document flash crowd (FetchHotFraction 0
	// disables; see proto.LoadSpec).
	FetchHotDoc      int     `json:"fetch_hot_doc,omitempty"`
	FetchHotFraction float64 `json:"fetch_hot_fraction,omitempty"`
	// KillNodes are hard-killed before the act's load.
	KillNodes []int `json:"kill_nodes,omitempty"`
	// TrackConvergence watches the fleet's fairness during this act and
	// records how long the leader takes to push it to convergeTarget
	// (the §6.1 adaptation-convergence data point).
	TrackConvergence bool `json:"track_convergence,omitempty"`
}

// Plan is one scenario: a deployment shape, per-node configuration, the
// act sequence, and the declared objectives. Every process node runs
// with a nodeCacheMB requester cache.
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

	// AdaptEveryMS is the adaptation epoch on every node (0 = off).
	AdaptEveryMS int `json:"adapt_every_ms,omitempty"`

	Acts []Act `json:"acts"`

	// run, when set, measures the plan in this process instead of the
	// process orchestrator: a chaos soak scenario or the scale rung.
	run func(Plan, RunConfig) (Result, error)
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
	if math.IsNaN(r.Current) {
		return fmt.Sprintf("%s (%s): baseline %.4g, no reading in this run",
			r.Metric, r.Goal, r.Baseline)
	}
	return fmt.Sprintf("%s (%s): baseline %.4g, current %.4g, allowed %.4g",
		r.Metric, r.Goal, r.Baseline, r.Current, r.Allowed)
}

// Compare gates the current run against a committed baseline using the
// plan's objectives. A metric the baseline lacks is skipped (the
// trajectory may grow new data points before baselines catch up), as is
// an unset convergence reading (-1) in the baseline. A gated metric the
// baseline has but the run lacks is a regression (Current NaN): a run
// whose fetches never happened reports no fetch readings at all. So is
// a run that STOPS converging while the baseline did converge.
func Compare(objectives []Objective, baseline, current Result) []Regression {
	var regs []Regression
	for _, o := range objectives {
		if o.RelTol == 0 && o.AbsTol == 0 {
			continue // report-only
		}
		base, ok := baseline.Totals[o.Metric]
		// Convergence sentinel: -1 means "not measured / did not
		// converge". Baseline -1 gates nothing; current -1 against a
		// measured baseline is the worst possible reading.
		if !ok || base < 0 {
			continue
		}
		cur, ok := current.Totals[o.Metric]
		if !ok {
			regs = append(regs, Regression{o.Metric, o.Goal, base, math.NaN(), base})
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
