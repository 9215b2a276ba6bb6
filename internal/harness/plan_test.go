package harness

import (
	"path/filepath"
	"slices"
	"testing"

	"p2pshare/internal/chaos/soak"
)

func res(totals map[string]float64) Result {
	return Result{Plan: "t", Totals: totals}
}

// TestCompareGates pins the gate arithmetic: slack = base*RelTol+AbsTol,
// direction by Goal, report-only when both tolerances are zero, and a
// gated reading the run lacks counts against it.
func TestCompareGates(t *testing.T) {
	objs := []Objective{
		{Metric: "p95_ms", Goal: "min", RelTol: 0.5, AbsTol: 10},
		{Metric: "fairness", Goal: "max", RelTol: 0.1},
		{Metric: "qps", Goal: "max"}, // report-only
	}
	base := res(map[string]float64{"p95_ms": 100, "fairness": 0.9, "qps": 500})

	cases := []struct {
		name string
		base map[string]float64 // nil: base
		cur  map[string]float64
		want int
	}{
		{"within", nil, map[string]float64{"p95_ms": 155, "fairness": 0.85, "qps": 1}, 0},
		{"latency over", nil, map[string]float64{"p95_ms": 161, "fairness": 0.9, "qps": 1}, 1},
		{"fairness under", nil, map[string]float64{"p95_ms": 100, "fairness": 0.80, "qps": 1}, 1},
		{"both", nil, map[string]float64{"p95_ms": 300, "fairness": 0.5, "qps": 1}, 2},
		{"report-only never gates", nil, map[string]float64{"p95_ms": 100, "fairness": 0.9, "qps": 0}, 0},
		{"gated metric missing from run regresses", nil, map[string]float64{"fairness": 0.9}, 1},
		{"metric missing from baseline skipped", map[string]float64{"fairness": 0.9}, map[string]float64{"fairness": 0.9}, 0},
	}
	for _, tc := range cases {
		b := base
		if tc.base != nil {
			b = res(tc.base)
		}
		regs := Compare(objs, b, res(tc.cur))
		if len(regs) != tc.want {
			t.Errorf("%s: got %d regressions %v, want %d", tc.name, len(regs), regs, tc.want)
		}
	}
}

// TestCompareConvergenceSentinel: -1 means "did not converge". A -1
// baseline gates nothing; a -1 current against a measured baseline is a
// regression regardless of slack.
func TestCompareConvergenceSentinel(t *testing.T) {
	objs := []Objective{{Metric: "adapt_convergence_s", Goal: "min", RelTol: 2.0, AbsTol: 15}}

	if regs := Compare(objs,
		res(map[string]float64{"adapt_convergence_s": -1}),
		res(map[string]float64{"adapt_convergence_s": 40})); len(regs) != 0 {
		t.Errorf("unmeasured baseline must not gate: %v", regs)
	}
	if regs := Compare(objs,
		res(map[string]float64{"adapt_convergence_s": 5}),
		res(map[string]float64{"adapt_convergence_s": -1})); len(regs) != 1 {
		t.Errorf("losing convergence must regress: %v", regs)
	}
	if regs := Compare(objs,
		res(map[string]float64{"adapt_convergence_s": 5}),
		res(map[string]float64{"adapt_convergence_s": 24})); len(regs) != 0 {
		t.Errorf("5*3+15=30 ≥ 24 must pass: %v", regs)
	}
}

// TestResultRoundtrip: the BENCH artifact survives write → read with
// objectives and act trajectory intact.
func TestResultRoundtrip(t *testing.T) {
	r := Result{
		Plan: "smoke", Seed: 7, Nodes: 22, Seconds: 12.5,
		Optimized: []Objective{{Metric: "p95_ms", Goal: "min", RelTol: 2}},
		Acts: []ActResult{
			{Name: "steady", Metrics: map[string]float64{"queries": 1100, "p95_ms": 8.25}},
		},
		Totals: map[string]float64{"queries": 1100, "p95_ms": 8.25, "adapt_convergence_s": -1},
	}
	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan != r.Plan || got.Seed != r.Seed || got.Nodes != r.Nodes {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Totals["p95_ms"] != 8.25 || got.Totals["adapt_convergence_s"] != -1 {
		t.Fatalf("totals mismatch: %v", got.Totals)
	}
	if len(got.Acts) != 1 || got.Acts[0].Metrics["queries"] != 1100 {
		t.Fatalf("acts mismatch: %+v", got.Acts)
	}
	if len(got.Optimized) != 1 || got.Optimized[0].Metric != "p95_ms" {
		t.Fatalf("objectives mismatch: %+v", got.Optimized)
	}
}

// TestPlanRegistry: every plan is well-formed — resolvable by name,
// shaped sanely, objectives pointing at gateable directions, the
// smoke plan honoring the ≥20-process floor, and one plan per soak
// scenario.
func TestPlanRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Plans() {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("plan name empty or duplicated: %q", p.Name)
		}
		seen[p.Name] = true
		back, err := LookupPlan(p.Name)
		if err != nil || back.Name != p.Name {
			t.Fatalf("LookupPlan(%q): %v", p.Name, err)
		}
		if p.Nodes <= 0 || p.Clusters <= 0 || p.Docs <= 0 || p.Cats <= 0 {
			t.Fatalf("plan %s: degenerate shape %+v", p.Name, p)
		}
		if len(p.Optimized) == 0 {
			t.Fatalf("plan %s declares no objectives", p.Name)
		}
		for _, o := range p.Optimized {
			if o.Goal != "min" && o.Goal != "max" {
				t.Fatalf("plan %s objective %s: goal %q", p.Name, o.Metric, o.Goal)
			}
		}
		if p.run == nil && len(p.Acts) == 0 {
			t.Fatalf("plan %s has neither acts nor an in-process runner", p.Name)
		}
	}
	if _, err := LookupPlan("no-such-plan"); err == nil {
		t.Fatal("LookupPlan must fail on unknown names")
	}
	if smoke, _ := LookupPlan("smoke"); smoke.Nodes < 20 {
		t.Fatalf("smoke plan launches %d processes, want >= 20", smoke.Nodes)
	}
	// A soak failure's replay line names `p2pbench -plan soak-<name>`:
	// every scenario must resolve to the plan that runs it.
	for _, sc := range soak.Scenarios() {
		p, err := LookupPlan("soak-" + sc.Name)
		if err != nil {
			t.Fatalf("soak scenario %s has no plan: %v", sc.Name, err)
		}
		if p.run == nil {
			t.Fatalf("plan soak-%s has no in-process runner", sc.Name)
		}
	}
	// The scale rung keeps the deployment shapes it has always measured.
	for _, want := range []Plan{
		{Name: "scale-1k", Nodes: 1000, Clusters: 10, Docs: 2000, Cats: 50, Seed: 51},
		{Name: "scale-5k", Nodes: 5000, Clusters: 50, Docs: 10000, Cats: 250, Seed: 51},
		{Name: "scale-10k", Nodes: 10000, Clusters: 100, Docs: 20000, Cats: 500, Seed: 51},
	} {
		p, err := LookupPlan(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Nodes != want.Nodes || p.Clusters != want.Clusters || p.Docs != want.Docs ||
			p.Cats != want.Cats || p.Seed != want.Seed || p.run == nil {
			t.Fatalf("plan %s: shape %d/%d/%d/%d seed %d, want %d/%d/%d/%d seed %d, in-process",
				p.Name, p.Nodes, p.Clusters, p.Docs, p.Cats, p.Seed,
				want.Nodes, want.Clusters, want.Docs, want.Cats, want.Seed)
		}
	}
}

// TestScalePlanSmall runs the scale measurement on a 40-node deployment:
// every total is reported, no query fails, an idle node costs one
// goroutine (its accept loop), and a query crosses two to three frames.
func TestScalePlanSmall(t *testing.T) {
	p := Plan{Name: "scale-small", Nodes: 40, Clusters: 4, Docs: 80, Cats: 20, Seed: 51}
	res, err := runScalePlan(p, RunConfig{Out: testLogWriter{t}}, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	for _, k := range []string{"startup_s", "heap_per_node_kb", "rss_mb", "goroutines_per_node",
		"errors", "qps", "p50_ms", "p95_ms", "p99_ms", "frames_per_query", "nodes_launched"} {
		if _, ok := res.Totals[k]; !ok {
			t.Errorf("totals lack %q", k)
		}
	}
	if e := res.Totals["errors"]; e != 0 {
		t.Errorf("errors = %v, want 0", e)
	}
	if g := res.Totals["goroutines_per_node"]; g < 1 || g > 1.1 {
		t.Errorf("goroutines_per_node = %v, want in [1, 1.1]", g)
	}
	if f := res.Totals["frames_per_query"]; f <= 1.5 || f >= 3 {
		t.Errorf("frames_per_query = %v, want in (1.5, 3)", f)
	}
}

// TestNodeArgsFrozen pins the argv each process plan starts its nodes
// with, a joiner's and the seed's: the node settings that became
// harness constants render exactly as the plans used to spell them
// (the adaptation threshold is p2pnode's built-in 0.83).
func TestNodeArgsFrozen(t *testing.T) {
	cases := []struct {
		plan Plan
		want []string
	}{
		{Smoke(), []string{"-harness", "-id", "3", "-listen", "127.0.0.1:0",
			"-docs", "600", "-cats", "12", "-nodes", "22", "-clusters", "4", "-seed", "7",
			"-bootstrap", "127.0.0.1:7000", "-cachemb", "8", "-adapt-interval", "1000ms"}},
		{Bulkmix(), []string{"-harness", "-id", "3", "-listen", "127.0.0.1:0",
			"-docs", "400", "-cats", "12", "-nodes", "20", "-clusters", "4", "-seed", "23",
			"-bootstrap", "127.0.0.1:7000", "-content", "-docbytes", "131072", "-cachemb", "8"}},
		{Flashbulk(), []string{"-harness", "-id", "3", "-listen", "127.0.0.1:0",
			"-docs", "400", "-cats", "12", "-nodes", "20", "-clusters", "4", "-seed", "29",
			"-bootstrap", "127.0.0.1:7000", "-content", "-content-cachemb", "16",
			"-docbytes", "131072", "-cachemb", "8", "-adapt-interval", "500ms"}},
	}
	for _, tc := range cases {
		if got := nodeArgs(3, "127.0.0.1:7000", tc.plan); !slices.Equal(got, tc.want) {
			t.Errorf("%s joiner argv:\n got %q\nwant %q", tc.plan.Name, got, tc.want)
		}
		// The seed node's argv is the joiner's with id 0 and no -bootstrap.
		seed := slices.Clone(tc.want)
		seed[2] = "0"
		i := slices.Index(seed, "-bootstrap")
		seed = slices.Delete(seed, i, i+2)
		if got := nodeArgs(0, "", tc.plan); !slices.Equal(got, seed) {
			t.Errorf("%s seed argv:\n got %q\nwant %q", tc.plan.Name, got, seed)
		}
	}
}
