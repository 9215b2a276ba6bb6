package harness

import (
	"path/filepath"
	"testing"

	"p2pshare/internal/chaos/soak"
)

func res(totals map[string]float64) Result {
	return Result{Plan: "t", Totals: totals}
}

// TestCompareGates pins the gate arithmetic: slack = base*RelTol+AbsTol,
// direction by Goal, report-only when both tolerances are zero.
func TestCompareGates(t *testing.T) {
	objs := []Objective{
		{Metric: "p95_ms", Goal: "min", RelTol: 0.5, AbsTol: 10},
		{Metric: "fairness", Goal: "max", RelTol: 0.1},
		{Metric: "qps", Goal: "max"}, // report-only
	}
	base := res(map[string]float64{"p95_ms": 100, "fairness": 0.9, "qps": 500})

	cases := []struct {
		name string
		cur  map[string]float64
		want int
	}{
		{"within", map[string]float64{"p95_ms": 155, "fairness": 0.85, "qps": 1}, 0},
		{"latency over", map[string]float64{"p95_ms": 161, "fairness": 0.9, "qps": 1}, 1},
		{"fairness under", map[string]float64{"p95_ms": 100, "fairness": 0.80, "qps": 1}, 1},
		{"both", map[string]float64{"p95_ms": 300, "fairness": 0.5, "qps": 1}, 2},
		{"report-only never gates", map[string]float64{"p95_ms": 100, "fairness": 0.9, "qps": 0}, 0},
		{"missing metric skipped", map[string]float64{"fairness": 0.9}, 0},
	}
	for _, tc := range cases {
		regs := Compare(objs, base, res(tc.cur))
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
		if p.Soak == "" && len(p.Acts) == 0 {
			t.Fatalf("plan %s has neither acts nor a soak scenario", p.Name)
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
		if p.Soak != sc.Name {
			t.Fatalf("plan soak-%s runs scenario %q", sc.Name, p.Soak)
		}
	}
}
