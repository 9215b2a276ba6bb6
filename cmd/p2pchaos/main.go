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
// A scenario's BENCH_soak-<name>.json artifact comes from the harness:
// go run ./cmd/p2pbench -plan soak-<name>.
package main

import (
	"flag"
	"fmt"
	"os"

	"p2pshare/internal/chaos/soak"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario name (see -list)")
		all      = flag.Bool("all", false, "run every built-in scenario")
		list     = flag.Bool("list", false, "list built-in scenarios and exit")
		seed     = flag.Int64("seed", 1, "chaos seed; a failing run replays exactly from its seed")
		nodes    = flag.Int("nodes", 12, "number of live nodes")
		clusters = flag.Int("clusters", 3, "number of node clusters")
		quiet    = flag.Bool("q", false, "suppress progress output")
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
