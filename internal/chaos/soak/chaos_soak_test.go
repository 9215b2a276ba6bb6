package soak

import (
	"slices"
	"testing"

	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
	"p2pshare/internal/replica"
)

// Each soak scenario is a self-contained integration test: boot a live
// loopback cluster behind the chaos layer, run the scripted fault
// timeline under background query load with continuous invariant
// sweeps, heal, and require recovery. A failure message carries the
// seed; replaying it reproduces the same fault pattern.

func runScenario(t *testing.T, name string, seed int64) Report {
	t.Helper()
	sc, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: seed, Nodes: 10, Clusters: 2, Docs: 300, Cats: 8}
	if testing.Verbose() {
		cfg.Out = testWriter{t}
	}
	rep, err := RunScenario(sc, cfg)
	if err != nil {
		t.Fatalf("%v\nall violations: %v", err, rep.Violations)
	}
	return rep
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

func TestSoakPartitionAdapt(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario")
	}
	runScenario(t, "partition-adapt", 101)
}

func TestSoakLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario")
	}
	rep := runScenario(t, "leader-kill", 202)
	if rep.ProbeOK == 0 {
		t.Fatal("no probe query succeeded after the leader was killed")
	}
}

func TestSoakCorruptStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario")
	}
	runScenario(t, "corrupt-storm", 303)
}

func TestSoakFlappy(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario")
	}
	runScenario(t, "flappy", 404)
}

// TestLeaderOfTargetsMostCapable pins the scenario library's leader
// mirror to livenet's election rule (protocol.MoreCapable over the
// cluster's members) on the deployment TestSoakLeaderKill runs, so
// leader-kill keeps killing the actual leader if either side changes.
func TestLeaderOfTargetsMostCapable(t *testing.T) {
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs, cfg.Catalog.NumCats = 300, 8
	cfg.NumNodes, cfg.NumClusters, cfg.Seed = 10, 2, 202
	d, err := replica.Deploy(cfg, replica.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	order := slices.Clone(d.Mem.NodesOf(0))
	slices.SortFunc(order, func(a, b model.NodeID) int {
		switch {
		case a == b:
			return 0
		case protocol.MoreCapable(a, d.Inst.Nodes[a].Units, b, d.Inst.Nodes[b].Units):
			return -1
		}
		return 1
	})
	if len(order) < 2 || order[0] != 3 {
		t.Fatalf("cluster 0 in capability order = %v, want node 3 first of at least two", order)
	}
	r := &Run{Inst: d.Inst, Mem: d.Mem, dead: map[model.NodeID]bool{}}
	if got := r.LeaderOf(0); got != order[0] {
		t.Fatalf("LeaderOf(0) = %d, want %d (most capable member)", got, order[0])
	}
	r.dead[order[0]] = true
	if got := r.LeaderOf(0); got != order[1] {
		t.Fatalf("LeaderOf(0) with %d dead = %d, want %d", order[0], got, order[1])
	}
}
