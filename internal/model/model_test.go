package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"p2pshare/internal/catalog"
)

func smallCfg() Config {
	c := DefaultConfig()
	c.Catalog.NumDocs = 2000
	c.Catalog.NumCats = 50
	c.NumNodes = 200
	c.NumClusters = 10
	return c
}

func TestGenerateBasics(t *testing.T) {
	inst, err := Generate(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if inst.NodeCount() != 200 || inst.DocCount() != 2000 || inst.CatCount() != 50 {
		t.Fatalf("counts: %d nodes %d docs %d cats", inst.NodeCount(), inst.DocCount(), inst.CatCount())
	}
	if inst.NumClusters != 10 {
		t.Fatalf("clusters = %d", inst.NumClusters)
	}
}

func TestGenerateEveryDocHasOneContributor(t *testing.T) {
	inst, err := Generate(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[catalog.DocID]NodeID)
	for i := range inst.Nodes {
		for _, di := range inst.Nodes[i].Contributed {
			if prev, dup := seen[di]; dup {
				t.Fatalf("doc %d contributed by both %d and %d", di, prev, inst.Nodes[i].ID)
			}
			seen[di] = inst.Nodes[i].ID
		}
	}
	if len(seen) != inst.DocCount() {
		t.Fatalf("%d of %d docs have contributors", len(seen), inst.DocCount())
	}
	for di, n := range seen {
		if inst.Contributors[di] != n {
			t.Fatalf("Contributors[%d] = %d, node list says %d", di, inst.Contributors[di], n)
		}
	}
}

func TestGenerateUnitsInRange(t *testing.T) {
	cfg := smallCfg()
	inst, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inst.Nodes {
		u := inst.Nodes[i].Units
		if u < minUnits || u > maxUnits {
			t.Fatalf("node %d units %g out of [%d,%d]", i, u, minUnits, maxUnits)
		}
	}
}

func TestGenerateStorageCoversContributions(t *testing.T) {
	inst, err := Generate(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range inst.Nodes {
		var contributed int64
		for _, di := range inst.Nodes[i].Contributed {
			contributed += inst.Catalog.Docs[di].Size
		}
		if inst.Nodes[i].StorageCap < contributed {
			t.Fatalf("node %d cap %d < contributed %d", i, inst.Nodes[i].StorageCap, contributed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i].Units != b.Nodes[i].Units || len(a.Nodes[i].Contributed) != len(b.Nodes[i].Contributed) {
			t.Fatal("same seed produced different instances")
		}
	}
}

func TestGenerateSeedChangesOutcome(t *testing.T) {
	cfg := smallCfg()
	a, _ := Generate(cfg)
	cfg.Seed = 999
	b, _ := Generate(cfg)
	same := true
	for i := range a.Nodes {
		if a.Nodes[i].Units != b.Nodes[i].Units {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical node units")
	}
}

func TestValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumNodes = 0 },
		func(c *Config) { c.NumClusters = -1 },
	}
	for i, mut := range mutations {
		c := smallCfg()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestContributedPopularity(t *testing.T) {
	inst, err := Generate(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := range inst.Nodes {
		p := inst.ContributedPopularity(inst.Nodes[i].ID)
		if p < 0 {
			t.Fatalf("node %d negative contributed popularity", i)
		}
		total += p
	}
	// Every doc contributed exactly once, so totals match the catalog.
	if math.Abs(total-inst.Catalog.TotalPopularity()) > 1e-9 {
		t.Errorf("summed contributed popularity %g != catalog total %g",
			total, inst.Catalog.TotalPopularity())
	}
}

func TestAttachDocument(t *testing.T) {
	inst, err := Generate(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ids, err := inst.Catalog.AddDocuments(5, 0.1, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := inst.AttachDocument(id, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.AttachDocument(ids[0], 4); err == nil {
		t.Error("re-attaching a document should fail")
	}
	if err := inst.AttachDocument(catalog.DocID(len(inst.Catalog.Docs)+10), 3); err == nil {
		t.Error("unknown doc should fail")
	}
	if err := inst.AttachDocument(ids[1], NodeID(len(inst.Nodes))); err == nil {
		t.Error("unknown node should fail")
	}
	found := 0
	for _, di := range inst.Nodes[3].Contributed {
		for _, id := range ids {
			if di == id {
				found++
			}
		}
	}
	if found != 5 {
		t.Errorf("node 3 lists %d of the 5 new docs", found)
	}
}

func TestGenerateContributionBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := smallCfg()
		cfg.Seed = seed
		inst, err := Generate(cfg)
		if err != nil {
			return false
		}
		// With more docs than nodes×min, every node contributes; counts
		// stay within [min, max] except for round-robin spillover which
		// only adds. Each doc exactly once is checked elsewhere; here
		// verify non-emptiness given the default ratios.
		for i := range inst.Nodes {
			if len(inst.Nodes[i].Contributed) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPaperConfigShape(t *testing.T) {
	c := PaperConfig()
	if c.Catalog.NumDocs != 200000 || c.NumNodes != 20000 ||
		c.NumClusters != 100 || c.Catalog.NumCats != 500 {
		t.Errorf("PaperConfig does not match §4.4: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}
