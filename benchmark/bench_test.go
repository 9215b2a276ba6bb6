package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"p2pshare/internal/model"
)

func TestPercentile(t *testing.T) {
	xs := make([]time.Duration, 101)
	for i := range xs {
		xs[i] = time.Duration(i)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0, 0}, {0.5, 50}, {0.95, 95}, {1, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(0..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// A stall that swallows one window must not move the sustained rate, and
// failed ops must not count as work.
func TestWindowedRate(t *testing.T) {
	start := time.Unix(0, 0)
	const n = 200
	ends := make([]time.Time, n)
	failed := make([]bool, n)
	at := start
	for i := range ends {
		at = at.Add(time.Millisecond) // 1000 ops/s
		if i == 57 {
			at = at.Add(6 * time.Second)
		}
		ends[i] = at
	}
	if got := windowedRate(start, ends, failed); math.Abs(got-1000) > 1e-6 {
		t.Errorf("rate with one stalled window = %v, want 1000", got)
	}
	for i := range failed {
		failed[i] = i%2 == 0
	}
	if got := windowedRate(start, ends, failed); math.Abs(got-500) > 1e-6 {
		t.Errorf("rate with half the ops failed = %v, want 500", got)
	}
}

func TestClusterJain(t *testing.T) {
	inst := &model.Instance{
		NumClusters: 2,
		Nodes:       []model.Node{{ID: 0, Units: 1}, {ID: 1, Units: 3}, {ID: 2, Units: 2}},
	}
	mem := &model.Membership{NodeClusters: [][]model.ClusterID{{0}, {1}, {0, 1}}}
	// Node 2 splits work 4 and units 2 between both clusters:
	// cluster 0 = (2+2)/(1+1) = 2, cluster 1 = (6+2)/(3+1) = 2.
	if got := clusterJain([]float64{2, 6, 4}, inst, mem); math.Abs(got-1) > 1e-12 {
		t.Errorf("balanced clusters: Jain = %v, want 1", got)
	}
	// All work on cluster 0: loads (1, 0) → Jain 1/2.
	if got := clusterJain([]float64{2, 0, 0}, inst, mem); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("one idle cluster: Jain = %v, want 0.5", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestZipfQuota(t *testing.T) {
	counts := zipfQuota(1000, 7, 1.2)
	sum := 0
	for r, c := range counts {
		sum += c
		if r > 0 && c > counts[r-1] {
			t.Errorf("rank %d got %d draws, more than rank %d's %d", r, c, r-1, counts[r-1])
		}
	}
	if sum != 1000 {
		t.Errorf("quota sums to %d, want 1000", sum)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		inst, assign, mem, _, err := buildModel(w.shape, w.nReps, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := buildSchedule(w, inst, assign, mem, 51, 400, 40)
		b := buildSchedule(w, inst, assign, mem, 51, 400, 40)
		c := buildSchedule(w, inst, assign, mem, 52, 400, 40)
		if a.hash != b.hash || !reflect.DeepEqual(a.measured, b.measured) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 51 and 52 gave the same schedule", w.name)
		}
		if len(a.pool) != w.origins {
			t.Errorf("%s: %d origins, want %d", w.name, len(a.pool), w.origins)
		}
		// Every origin belongs to exactly one client.
		for cl, ops := range a.measured {
			for _, o := range ops {
				if int(o.origin)%w.clients != cl {
					t.Fatalf("%s: client %d was dealt origin %d", w.name, cl, o.origin)
				}
			}
		}
	}
}

// buildModel must stay the step-by-step equal of livenet.Shape.Build.
func TestBuildModelMatchesShapeBuild(t *testing.T) {
	sh := findWorkload("fetch_4mb").shape
	_, assign, _, place, err := buildModel(sh, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, wantAssign, wantPlace, err := sh.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(assign, wantAssign) || !reflect.DeepEqual(place.Stored, wantPlace.Stored) {
		t.Error("buildModel and Shape.Build disagree on the deployment")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDeclarationsWithinContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
		if w.queryPct+w.publishPct+w.fetchPct != 100 {
			t.Errorf("%s: mix sums to %d", w.name, w.queryPct+w.publishPct+w.fetchPct)
		}
		if w.clients > 2 {
			t.Errorf("%s: %d clients on a 2-core box", w.name, w.clients)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
	}
}

// BENCHMARK.json at the root is generated by -manifest; it must not be
// edited apart from the declarations.
func TestManifestCommitted(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
}

// A -scale 0.005 run of every workload, untraced and traced, must emit
// every declared metric, fail no op and pass every check but the warm
// guard, which a warm-up this short is right to trip.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 7, defaultSeconds, 0.005, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 {
				t.Errorf("%s traced=%v: %d ops failed: %v", w.name, traced, res.failed, res.failsBy)
			}
			for _, v := range res.violations {
				if !strings.HasPrefix(v, coldLinks) {
					t.Errorf("%s traced=%v: %s", w.name, traced, v)
				}
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			for _, d := range decls {
				if _, ok := res.metrics[d.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, d.Name)
				}
			}
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(res.jsonLine(decls), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: result line lacks a contract key or a metric", w.name, traced)
			}
		}
	}
}
