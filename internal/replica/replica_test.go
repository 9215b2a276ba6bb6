package replica

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/core"
	"p2pshare/internal/fairness"
	"p2pshare/internal/model"
)

func setupConfig() model.Config {
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = 3000
	cfg.Catalog.NumCats = 60
	cfg.NumNodes = 300
	cfg.NumClusters = 12
	cfg.Seed = 50
	return cfg
}

func setup(t testing.TB) (*model.Instance, []model.ClusterID, *model.Membership) {
	t.Helper()
	inst, err := model.Generate(setupConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MaxFair(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := model.NewMembership(inst, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	return inst, res.Assignment, mem
}

// TestDeployRunsTheStagesInOrder: Deploy's assignment, membership and
// placement equal the stages run by hand, and an error names its stage.
func TestDeployRunsTheStagesInOrder(t *testing.T) {
	inst, assign, mem := setup(t)
	place, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(setupConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Assign, assign) || !reflect.DeepEqual(d.Mem, mem) || !reflect.DeepEqual(d.Place, place) {
		t.Fatal("Deploy differs from generate → MaxFair → membership → placement")
	}
	if !reflect.DeepEqual(d.Assign, d.MaxFair.Assignment) {
		t.Fatal("Assign is not the MaxFair result's assignment")
	}
	if _, err := Deploy(setupConfig(), Config{NReps: 0}); err == nil || !strings.HasPrefix(err.Error(), "placement: ") {
		t.Fatalf("invalid placement config: err = %v, want it named for the placement stage", err)
	}
}

func TestPlaceRespectsCapacity(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range inst.Nodes {
		if p.StoredBytes[k] > inst.Nodes[k].StorageCap {
			t.Fatalf("node %d stores %d bytes over capacity %d",
				k, p.StoredBytes[k], inst.Nodes[k].StorageCap)
		}
	}
}

func TestPlaceKeepsContributions(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range inst.Nodes {
		stored := make(map[catalog.DocID]bool, len(p.Stored[k]))
		for _, di := range p.Stored[k] {
			stored[di] = true
		}
		for _, di := range inst.Nodes[k].Contributed {
			if !stored[di] {
				t.Fatalf("node %d lost contributed doc %d", k, di)
			}
		}
	}
}

func TestPlaceNoDuplicateCopiesPerNode(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range p.Stored {
		seen := make(map[catalog.DocID]bool)
		for _, di := range p.Stored[k] {
			if seen[di] {
				t.Fatalf("node %d stores doc %d twice", k, di)
			}
			seen[di] = true
		}
	}
}

func TestPlaceReachesReplicationDegree(t *testing.T) {
	inst, assign, mem := setup(t)
	cfg := DefaultConfig()
	p, err := Place(inst, assign, mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the default generous storage slack every document should reach
	// its replication degree (or have no drops recorded otherwise).
	if p.CapacityDrops > 0 {
		t.Logf("capacity drops: %d", p.CapacityDrops)
	}
	short := 0
	for di, r := range p.Replicas {
		if r == 0 {
			t.Fatalf("doc %d has no copies at all", di)
		}
		if r < cfg.NReps {
			short++
		}
	}
	// A document can stay below NReps only through capacity drops or a
	// single-node cluster.
	if short > 0 && p.CapacityDrops == 0 {
		single := 0
		for _, nodes := range mem.ClusterNodes {
			if len(nodes) == 1 {
				single++
			}
		}
		if single == 0 {
			t.Errorf("%d docs below replication degree without capacity drops", short)
		}
	}
}

func TestPlaceHotDocsOnAllNodes(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.CapacityDrops > 0 {
		t.Skip("capacity drops make full hot replication unverifiable")
	}
	for c, hot := range p.HotDocs {
		nodes := mem.NodesOf(model.ClusterID(c))
		for _, di := range hot {
			if got := p.Replicas[di]; got < len(nodes) {
				t.Fatalf("hot doc %d in cluster %d has %d copies, cluster has %d nodes",
					di, c, got, len(nodes))
			}
		}
	}
}

func TestPlaceImprovesIntraClusterFairness(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: contributions only.
	contribOnly := make([]float64, len(inst.Nodes))
	for k := range inst.Nodes {
		contribOnly[k] = inst.ContributedPopularity(model.NodeID(k))
	}
	var better, worse int
	for c, nodes := range mem.ClusterNodes {
		if len(nodes) < 2 {
			continue
		}
		base := make([]float64, len(nodes))
		placed := make([]float64, len(nodes))
		for i, k := range nodes {
			base[i] = contribOnly[k]
			placed[i] = p.StoredPopularity[k]
		}
		fb, fp := fairness.Jain(base), fairness.Jain(placed)
		if fp >= fb {
			better++
		} else {
			worse++
		}
		_ = c
	}
	if worse > better {
		t.Errorf("placement worsened intra-cluster fairness in %d clusters, improved %d", worse, better)
	}
	// Aggregate per-cluster fairness should be high.
	fs := p.IntraClusterFairness(mem)
	var sum float64
	var n int
	for c, f := range fs {
		if len(mem.ClusterNodes[c]) > 1 {
			sum += f
			n++
		}
	}
	if n > 0 && sum/float64(n) < 0.80 {
		t.Errorf("mean intra-cluster fairness %g < 0.80", sum/float64(n))
	}
}

func TestPlaceDeterministic(t *testing.T) {
	inst, assign, mem := setup(t)
	a, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Stored {
		if len(a.Stored[k]) != len(b.Stored[k]) {
			t.Fatal("placement not deterministic")
		}
	}
}

func TestPlaceConfigValidation(t *testing.T) {
	inst, assign, mem := setup(t)
	if _, err := Place(inst, assign, mem, Config{NReps: 0, HotMass: 0.35}); err == nil {
		t.Error("NReps=0 should fail")
	}
	if _, err := Place(inst, assign, mem, Config{NReps: 2, HotMass: 1.5}); err == nil {
		t.Error("HotMass>1 should fail")
	}
	if _, err := Place(inst, assign, mem, Config{NReps: 2, HotMass: -0.1}); err == nil {
		t.Error("HotMass<0 should fail")
	}
}

func TestPlaceZeroHotMass(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := Place(inst, assign, mem, Config{NReps: 1, HotMass: 0})
	if err != nil {
		t.Fatal(err)
	}
	for c := range p.HotDocs {
		if len(p.HotDocs[c]) != 0 {
			t.Fatalf("cluster %d has hot docs with HotMass=0", c)
		}
	}
	// NReps=1 and contributions already stored: nothing extra placed.
	for di, r := range p.Replicas {
		if r != 1 {
			t.Fatalf("doc %d has %d replicas, want exactly 1", di, r)
		}
	}
}

func TestPlaceProportionalBasics(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := PlaceProportional(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Capacity respected, contributions kept, every doc has >= 1 copy.
	for k := range inst.Nodes {
		if p.StoredBytes[k] > inst.Nodes[k].StorageCap {
			t.Fatalf("node %d over capacity", k)
		}
	}
	for di, r := range p.Replicas {
		if r == 0 {
			t.Fatalf("doc %d has no copies", di)
		}
	}
	for k := range inst.Nodes {
		stored := make(map[catalog.DocID]bool, len(p.Stored[k]))
		for _, di := range p.Stored[k] {
			stored[di] = true
		}
		for _, di := range inst.Nodes[k].Contributed {
			if !stored[di] {
				t.Fatalf("node %d lost contributed doc %d", k, di)
			}
		}
	}
}

func TestPlaceProportionalPopularDocsGetMoreReplicas(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := PlaceProportional(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The most popular doc should have strictly more replicas than the
	// median doc.
	top := p.Replicas[0] // doc 0 is popularity rank 0
	counts := append([]int(nil), p.Replicas...)
	sort.Ints(counts)
	median := counts[len(counts)/2]
	if top <= median {
		t.Errorf("top doc has %d replicas, median %d — no proportionality", top, median)
	}
}

func TestPlaceProportionalUsesLessStorageThanHotSet(t *testing.T) {
	inst, assign, mem := setup(t)
	hot, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prop, err := PlaceProportional(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	totalOf := func(p *Placement) (n int) {
		for _, r := range p.Replicas {
			n += r
		}
		return
	}
	if totalOf(prop) >= totalOf(hot) {
		t.Errorf("proportional placed %d replicas, hot-set %d — no saving",
			totalOf(prop), totalOf(hot))
	}
}

func TestAccessors(t *testing.T) {
	inst, assign, mem := setup(t)
	p, err := Place(inst, assign, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxStoredBytes() <= 0 {
		t.Error("MaxStoredBytes should be positive")
	}
	if p.MinReplicas() < 1 {
		t.Error("MinReplicas should be >= 1")
	}
}
