// Command p2pchaos runs seeded chaos scenarios against a live loopback
// cluster and checks the livenet invariants (responsive nodes, no
// stuck queries, bounded tables, post-heal recovery).
//
// A failing run prints its seed and the exact command that replays the
// same fault pattern:
//
//	go run ./cmd/p2pchaos -scenario flappy -seed 42
//	go run ./cmd/p2pchaos -all -seed 7 -nodes 16
//	go run ./cmd/p2pchaos -list
//
// With -out DIR, each scenario additionally writes a
// BENCH_soak-<name>.json data point in the harness trajectory format
// (internal/harness), so soak outcomes land in the same artifact stream
// the p2pbench plans feed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"p2pshare/internal/chaos/soak"
)

// benchResult mirrors harness.Result enough to emit the same artifact
// schema without importing the orchestrator into this small CLI.
type benchResult struct {
	Plan    string             `json:"plan"`
	Seed    int64              `json:"seed"`
	Nodes   int                `json:"nodes"`
	Seconds float64            `json:"seconds"`
	Totals  map[string]float64 `json:"totals"`
}

func writeBench(dir string, rep soak.Report, nodes int) error {
	rate := func(num, den int) float64 {
		if den == 0 {
			return 1
		}
		return float64(num) / float64(den)
	}
	res := benchResult{
		Plan: "soak-" + rep.Scenario, Seed: rep.Seed, Nodes: nodes,
		Seconds: rep.Elapsed.Seconds(),
		Totals: map[string]float64{
			"queries":        float64(rep.Queries),
			"ok":             float64(rep.Succeeded),
			"violations":     float64(len(rep.Violations)),
			"probe_ok_rate":  rate(rep.ProbeOK, rep.ProbeTotal),
			"success_rate":   rate(rep.Succeeded, rep.Queries),
			"nodes_launched": float64(nodes),
		},
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+res.Plan+".json")
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario name (see -list)")
		all      = flag.Bool("all", false, "run every built-in scenario")
		list     = flag.Bool("list", false, "list built-in scenarios and exit")
		seed     = flag.Int64("seed", 1, "chaos seed; a failing run replays exactly from its seed")
		nodes    = flag.Int("nodes", 12, "number of live nodes")
		clusters = flag.Int("clusters", 3, "number of node clusters")
		quiet    = flag.Bool("q", false, "suppress progress output")
		outDir   = flag.String("out", "", "also write BENCH_soak-<scenario>.json artifacts into this directory")
	)
	flag.Parse()

	if *list {
		for _, sc := range soak.Scenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Desc)
		}
		return
	}

	var run []soak.Scenario
	switch {
	case *all:
		run = soak.Scenarios()
	case *scenario != "":
		sc, err := soak.Lookup(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			fmt.Fprintln(os.Stderr, "use -list to see the built-in scenarios")
			os.Exit(2)
		}
		run = []soak.Scenario{sc}
	default:
		fmt.Fprintln(os.Stderr, "pick a scenario with -scenario <name> or run -all (see -list)")
		os.Exit(2)
	}

	cfg := soak.Config{Seed: *seed, Nodes: *nodes, Clusters: *clusters, Out: os.Stdout}
	if *quiet {
		cfg.Out = nil
	}

	failed := false
	for _, sc := range run {
		rep, err := soak.RunScenario(sc, cfg)
		if *outDir != "" && rep.Scenario != "" {
			if werr := writeBench(*outDir, rep, *nodes); werr != nil {
				fmt.Fprintf(os.Stderr, "write bench artifact: %v\n", werr)
				failed = true
			}
		}
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "FAIL %s (seed %d): %v\n", sc.Name, rep.Seed, err)
			continue
		}
		fmt.Printf("PASS %s (seed %d): %d/%d workload, %d/%d probes, %s\n",
			sc.Name, rep.Seed, rep.Succeeded, rep.Queries,
			rep.ProbeOK, rep.ProbeTotal, rep.Elapsed.Round(10_000_000))
	}
	if failed {
		os.Exit(1)
	}
}
