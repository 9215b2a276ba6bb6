package harness

import (
	"os/exec"
	"testing"
	"time"
)

// TestTinyPlanEndToEnd drives a miniature plan through the real
// machinery: builds the p2pnode binary, launches real processes, runs
// the uncounted warm-up load, a steady act and a kill/restart act, and
// checks the Result carries the promised data points. Small on purpose
// (5 processes, tens of queries) so tier-1 `go test ./...` stays quick;
// -short skips it, as does a missing `go` on PATH.
func TestTinyPlanEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	p := Plan{
		Name: "tiny", Overview: "e2e test plan",
		Optimized: []Objective{
			{Metric: "error_rate", Goal: "min", RelTol: 1, AbsTol: 0.2},
			{Metric: "p95_ms", Goal: "min"},
		},
		Nodes: 5, Clusters: 2, Docs: 160, Cats: 6, Seed: 33,
		CacheMB: 4, Warmup: 5,
		Acts: []Act{
			{Name: "steady", QueriesPerNode: 12, Concurrency: 3, M: 2,
				HotCategory: -1, TimeoutMS: 5000},
			{Name: "churn", QueriesPerNode: 10, Concurrency: 3, M: 2,
				HotCategory: -1, TimeoutMS: 5000,
				KillNodes: []int{4}},
		},
	}
	res, err := Run(p, RunConfig{Out: testLogWriter{t}, ActTimeout: 90 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	if got := res.Totals["nodes_launched"]; got != 5 {
		t.Errorf("nodes_launched = %v, want 5", got)
	}
	wantQ := float64(5*12 + 4*10) // act 2 runs on 4 survivors
	if res.Totals["queries"] != wantQ {
		t.Errorf("queries = %v, want %v (count-based acts must be exact)", res.Totals["queries"], wantQ)
	}
	if res.Totals["ok"] == 0 {
		t.Error("no query succeeded across the whole run")
	}
	if res.Totals["error_rate"] > 0.5 {
		t.Errorf("error_rate = %v — loopback fleet should mostly succeed", res.Totals["error_rate"])
	}
	for _, k := range []string{"p50_ms", "p95_ms", "p99_ms", "fairness_jain_served",
		"wire_bytes_in", "wire_bytes_out", "wire_bytes_per_query"} {
		if v, ok := res.Totals[k]; !ok || v <= 0 {
			t.Errorf("totals[%q] = %v, want > 0", k, v)
		}
	}
	if f := res.Totals["fairness_jain_served"]; f > 1.0001 {
		t.Errorf("Jain fairness %v > 1", f)
	}
	if len(res.Acts) != 2 {
		t.Fatalf("acts = %d, want 2", len(res.Acts))
	}
	if res.Acts[0].Metrics["queries"] != 60 || res.Acts[1].Metrics["queries"] != 40 {
		t.Errorf("per-act query counts: %v / %v, want 60 / 40",
			res.Acts[0].Metrics["queries"], res.Acts[1].Metrics["queries"])
	}
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
