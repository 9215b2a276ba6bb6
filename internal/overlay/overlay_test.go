package overlay

import (
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/fairness"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// buildSystem assembles a small but complete system: instance → MaxFair →
// membership → replica placement → overlay.
func buildSystem(t testing.TB, seed int64) (*System, *model.Instance, []model.ClusterID) {
	t.Helper()
	return buildModeSystem(t, seed, ModeFlood)
}

// popularCategory returns a category with at least min documents.
func popularCategory(t *testing.T, inst *model.Instance, min int) catalog.CategoryID {
	t.Helper()
	best, bestDocs := catalog.NoCategory, -1
	for i := range inst.Catalog.Cats {
		if n := len(inst.Catalog.Cats[i].Docs); n > bestDocs {
			best, bestDocs = inst.Catalog.Cats[i].ID, n
		}
	}
	if bestDocs < min {
		t.Fatalf("no category with %d docs (max %d)", min, bestDocs)
	}
	return best
}

func TestQueryReturnsRequestedResults(t *testing.T) {
	sys, inst, _ := buildSystem(t, 1)
	cat := popularCategory(t, inst, 10)
	id := sys.IssueQuery(0, cat, 5)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep, ok := sys.QueryReport(0, id)
	if !ok {
		t.Fatal("no report")
	}
	if !rep.Done {
		t.Fatalf("query incomplete: %+v", rep)
	}
	if rep.Results < 5 {
		t.Errorf("got %d results, want >= 5", rep.Results)
	}
	if rep.ResponseTime <= 0 {
		t.Error("response time should be positive")
	}
	if rep.Hops < 1 {
		t.Errorf("hops = %d, want >= 1", rep.Hops)
	}
}

func TestQueryFindsAllReachableDocs(t *testing.T) {
	// Ask for far more results than exist: flooding must reach every
	// cluster node, so every stored doc of the category is found (§3.3:
	// "until ... all reachable nodes of the cluster have been queried").
	sys, inst, assign := buildSystem(t, 2)
	cat := popularCategory(t, inst, 5)
	nDocs := len(inst.Catalog.Cats[cat].Docs)
	id := sys.IssueQuery(3, cat, nDocs*10)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep, _ := sys.QueryReport(3, id)
	// Count docs of the category actually stored anywhere in the cluster.
	stored := make(map[catalog.DocID]bool)
	for _, p := range sys.peers {
		if !p.inCluster(assign[cat]) {
			continue
		}
		for di, c := range p.dt {
			if c == cat {
				stored[di] = true
			}
		}
	}
	if rep.Results != len(stored) {
		t.Errorf("found %d docs, cluster stores %d", rep.Results, len(stored))
	}
}

func TestQueryHopsBoundedByClusterSize(t *testing.T) {
	sys, inst, assign := buildSystem(t, 3)
	cat := popularCategory(t, inst, 5)
	members := 0
	for _, p := range sys.peers {
		if p.inCluster(assign[cat]) {
			members++
		}
	}
	id := sys.IssueQuery(1, cat, 1000)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep, _ := sys.QueryReport(1, id)
	// §3.3: "the response time will be bounded from above by the number
	// of nodes in the larger cluster" (+1 for the initial hop in).
	if rep.Hops > members+1 {
		t.Errorf("hops %d exceeds cluster size %d", rep.Hops, members)
	}
}

func TestQueryLoadSpreadsAcrossCluster(t *testing.T) {
	sys, inst, assign := buildSystem(t, 4)
	cat := popularCategory(t, inst, 10)
	// Many single-result queries from many origins: the random target
	// selection should spread serving load over the cluster (§3.3 step
	// 1c).
	for i := 0; i < 400; i++ {
		origin := model.NodeID(i % sys.NumPeers())
		sys.IssueQuery(origin, cat, 1)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var loads []float64
	for _, p := range sys.peers {
		if p.inCluster(assign[cat]) {
			loads = append(loads, float64(p.served))
		}
	}
	if f := fairness.Jain(loads); f < 0.5 {
		t.Errorf("intra-cluster served-load fairness %g < 0.5 over %d members", f, len(loads))
	}
}

func TestQueryFailsWithDeadCluster(t *testing.T) {
	sys, inst, assign := buildSystem(t, 5)
	cat := popularCategory(t, inst, 3)
	cl := assign[cat]
	for _, p := range sys.peers {
		if p.inCluster(cl) {
			sys.net.Kill(p.addr)
		}
	}
	origin := model.NodeID(-1)
	for _, p := range sys.peers {
		if !p.inCluster(cl) {
			origin = p.id
			break
		}
	}
	if origin == -1 {
		t.Skip("every node is in the target cluster")
	}
	before := sys.FailedQueries()
	sys.IssueQuery(origin, cat, 1)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.FailedQueries() != before+1 {
		t.Errorf("failed = %d, want %d", sys.FailedQueries(), before+1)
	}
}

func TestQueryKeywordsPath(t *testing.T) {
	sys, inst, _ := buildSystem(t, 6)
	cat := popularCategory(t, inst, 5)
	kws := inst.Catalog.Cats[cat].Keywords[:1]
	best := func(keywords []string) (catalog.CategoryID, bool) {
		// Stand-in classifier: exact keyword ownership.
		for i := range inst.Catalog.Cats {
			for _, kw := range inst.Catalog.Cats[i].Keywords {
				if kw == keywords[0] {
					return inst.Catalog.Cats[i].ID, true
				}
			}
		}
		return catalog.NoCategory, false
	}
	id, err := sys.IssueQueryKeywords(2, best, kws, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep, _ := sys.QueryReport(2, id)
	if !rep.Done {
		t.Errorf("keyword query incomplete: %+v", rep)
	}
	if _, err := sys.IssueQueryKeywords(2, best, []string{"no-such-keyword"}, 1); err == nil {
		t.Error("unmatched keywords should error")
	}
}

func TestPublishNewDocumentBecomesQueryable(t *testing.T) {
	sys, inst, _ := buildSystem(t, 7)
	// Create a genuinely new document in an existing category.
	ids, err := inst.Catalog.AddDocuments(1, 0.05, 0.8, sys.rng)
	if err != nil {
		t.Fatal(err)
	}
	d := ids[0]
	publisher := model.NodeID(10)
	if err := inst.AttachDocument(d, publisher); err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(publisher, d); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !sys.peers[publisher].Stores(d) {
		t.Fatal("publisher does not store its own document")
	}
	// The publisher must now belong to the category's cluster.
	cat := inst.Catalog.Doc(d).Categories[0]
	cl := sys.peers[publisher].routeCategory(cat).Cluster
	if !sys.peers[publisher].inCluster(cl) {
		t.Errorf("publisher not in cluster %d after publish", cl)
	}
	// And cluster nodes learned about the publisher.
	known := 0
	for _, p := range sys.peers {
		if p.id == publisher || !p.inCluster(cl) {
			continue
		}
		for _, n := range p.neighbors(cl) {
			if n == publisher {
				known++
			}
		}
	}
	if known == 0 {
		t.Error("no cluster node recorded the publisher in its NRT")
	}
}

func TestPublishFollowsRedirect(t *testing.T) {
	sys, inst, assign := buildSystem(t, 8)
	cat := popularCategory(t, inst, 3)
	trueCluster := assign[cat]
	// Find a publisher outside the category's cluster and poison its DCRT
	// to a wrong cluster; the publish acks must redirect it.
	var publisher model.NodeID = -1
	for _, p := range sys.peers {
		if !p.inCluster(trueCluster) {
			publisher = p.id
			break
		}
	}
	if publisher == -1 {
		t.Skip("all nodes in target cluster")
	}
	wrong := model.ClusterID((int(trueCluster) + 1) % inst.NumClusters)
	sys.peers[publisher].dcrt.Set(cat, DCRTEntry{Cluster: wrong})

	ids, err := inst.Catalog.AddDocuments(1, 0.01, 0.8, sys.rng)
	if err != nil {
		t.Fatal(err)
	}
	d := ids[0]
	// Force the new doc into our chosen category for the test.
	oldCat := inst.Catalog.Doc(d).Categories[0]
	if oldCat != cat {
		inst.Catalog.Doc(d).Categories[0] = cat
	}
	if err := inst.AttachDocument(d, publisher); err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(publisher, d); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sys.peers[publisher].routeCategory(cat).Cluster; got != trueCluster {
		t.Errorf("publisher's DCRT still points to cluster %d, want %d", got, trueCluster)
	}
	if !sys.peers[publisher].inCluster(trueCluster) {
		t.Error("publisher did not join the true cluster after redirect")
	}
}

func TestJoinWithContent(t *testing.T) {
	sys, inst, _ := buildSystem(t, 9)
	n := sys.AddNode(3, 1<<40)
	ids, err := inst.Catalog.AddDocuments(3, 0.02, 0.8, sys.rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ids {
		if err := inst.AttachDocument(d, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Join(n, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	p := sys.peers[n]
	if len(p.dcrt.Snapshot()) == 0 {
		t.Fatal("joiner has empty DCRT after join")
	}
	for _, d := range ids {
		if !p.Stores(d) {
			t.Errorf("joiner does not store contributed doc %d", d)
		}
	}
	if len(p.clusters) == 0 {
		t.Error("joiner belongs to no cluster after publishing content")
	}
}

func TestJoinFreeRider(t *testing.T) {
	sys, _, _ := buildSystem(t, 10)
	n := sys.AddNode(1, 1<<30)
	if err := sys.Join(n, 5); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	p := sys.peers[n]
	if len(p.dcrt.Snapshot()) == 0 {
		t.Error("free rider has empty DCRT")
	}
	if len(p.clusters) == 0 {
		t.Error("free rider joined no cluster (dummy publish failed)")
	}
	if p.StoredCount() != 0 {
		t.Error("free rider should store nothing")
	}
}

func TestJoinErrors(t *testing.T) {
	sys, _, _ := buildSystem(t, 11)
	if err := sys.Join(0, 0); err == nil {
		t.Error("self-bootstrap should fail")
	}
	if err := sys.Join(model.NodeID(sys.NumPeers()+5), 0); err == nil {
		t.Error("unknown node should fail")
	}
}

func TestLeaveCleansNRTAndAdoptsDocs(t *testing.T) {
	sys, _, _ := buildSystem(t, 12)
	leaver := model.NodeID(20)
	p := sys.peers[leaver]
	var docs []catalog.DocID
	for di := range p.dt {
		docs = append(docs, di)
	}
	if len(docs) == 0 {
		t.Skip("leaver stores nothing")
	}
	leaverClusters := append([]model.ClusterID(nil), p.clusters...)
	sys.Leave(leaver)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// The leave floods through the leaver's clusters: every member of
	// those clusters must have scrubbed the leaver from its NRT. (Remote
	// contacts elsewhere go stale and are skipped lazily at routing
	// time; that is by design.)
	for _, q := range sys.peers {
		if q.id == leaver {
			continue
		}
		member := false
		for _, cl := range leaverClusters {
			if q.inCluster(cl) {
				member = true
			}
		}
		if !member {
			continue
		}
		for cl, list := range q.nrt {
			for _, n := range list {
				if n == leaver {
					t.Fatalf("cluster member %d still lists leaver in NRT[%d]", q.id, cl)
				}
			}
		}
	}
	// Each doc must survive somewhere (successor adoption).
	for _, di := range docs {
		alive := false
		for _, q := range sys.peers {
			if q.id != leaver && q.Stores(di) {
				alive = true
				break
			}
		}
		if !alive {
			t.Errorf("doc %d lost after leave", di)
		}
	}
}

func TestAdaptationElectsLeaders(t *testing.T) {
	sys, _, _ := buildSystem(t, 13)
	rep, err := sys.RunAdaptation(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Leaders) == 0 {
		t.Fatal("no leaders elected")
	}
	// The elected leader of each cluster must be a most-capable member.
	for cl, leader := range rep.Leaders {
		var maxUnits float64
		for _, p := range sys.peers {
			if p.inCluster(cl) && p.units > maxUnits {
				maxUnits = p.units
			}
		}
		if sys.peers[leader].units != maxUnits {
			t.Errorf("cluster %d leader %d has %g units, max is %g",
				cl, leader, sys.peers[leader].units, maxUnits)
		}
		if !sys.peers[leader].inCluster(cl) {
			t.Errorf("cluster %d leader %d is not a member", cl, leader)
		}
	}
	// All members of a cluster agree on the leader.
	for cl, leader := range rep.Leaders {
		for _, p := range sys.peers {
			if !p.inCluster(cl) {
				continue
			}
			if got := p.leaders[cl]; got != leader {
				t.Errorf("cluster %d: node %d believes leader %d, elected %d", cl, p.id, got, leader)
			}
		}
	}
}

func TestAdaptationNoopWhenBalanced(t *testing.T) {
	sys, inst, _ := buildSystem(t, 14)
	// Drive a popularity-faithful workload: loads should be balanced
	// (MaxFair placed the categories), so adaptation must not rebalance.
	sampler := newCatSampler(inst)
	for i := 0; i < 600; i++ {
		origin := model.NodeID(i % sys.NumPeers())
		sys.IssueQuery(origin, sampler(sys), 1)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunAdaptation(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeasuredFairness < protocol.DefaultThresholds.LowThreshold {
		t.Logf("measured fairness %g below threshold — sampling noise", rep.MeasuredFairness)
	} else if rep.Rebalanced {
		t.Errorf("rebalanced although fairness %g above threshold", rep.MeasuredFairness)
	}
}

// newCatSampler samples categories proportionally to their popularity.
func newCatSampler(inst *model.Instance) func(*System) catalog.CategoryID {
	pops := inst.Catalog.CategoryPopularities()
	cum := make([]float64, len(pops))
	var sum float64
	for i, p := range pops {
		sum += p
		cum[i] = sum
	}
	return func(s *System) catalog.CategoryID {
		x := s.rng.Float64() * sum
		for i, c := range cum {
			if x <= c {
				return catalog.CategoryID(i)
			}
		}
		return catalog.CategoryID(len(cum) - 1)
	}
}

func TestAdaptationRebalancesSkewedLoad(t *testing.T) {
	sys, inst, assign := buildSystem(t, 15)
	// Hammer only the categories of one cluster: measured fairness must
	// crater and phase 4 must move categories away.
	hot := assign[popularCategory(t, inst, 3)]
	var hotCats []catalog.CategoryID
	for c, cl := range assign {
		if cl == hot {
			hotCats = append(hotCats, catalog.CategoryID(c))
		}
	}
	for i := 0; i < 800; i++ {
		origin := model.NodeID(i % sys.NumPeers())
		sys.IssueQuery(origin, hotCats[i%len(hotCats)], 1)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunAdaptation(5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeasuredFairness >= protocol.DefaultThresholds.LowThreshold {
		t.Fatalf("skewed workload measured fair (%g)", rep.MeasuredFairness)
	}
	if !rep.Rebalanced || len(rep.Moves) == 0 {
		t.Fatal("no rebalancing under heavy skew")
	}
	if rep.FairnessAfter <= rep.MeasuredFairness {
		t.Errorf("fairness did not improve: %g -> %g", rep.MeasuredFairness, rep.FairnessAfter)
	}
	// The moves' metadata must have propagated. A category can move more
	// than once in a round; only its final destination is live truth.
	final := make(map[catalog.CategoryID]model.ClusterID)
	for _, mv := range rep.Moves {
		final[mv.Category] = mv.To
	}
	for cat, to := range final {
		holders, withCounter := 0, 0
		for _, p := range sys.peers {
			if e, ok := p.dcrt.Get(cat); ok && e.Cluster == to {
				holders++
				if e.MoveCounter > 0 {
					withCounter++
				}
			}
		}
		if holders == 0 {
			t.Errorf("no peer learned category %d moved to %d", cat, to)
		}
		if withCounter == 0 {
			t.Errorf("moved category %d has zero move counter everywhere", cat)
		}
		if sys.assign[cat] != to {
			t.Errorf("system truth for category %d is %d, want %d", cat, sys.assign[cat], to)
		}
	}
	// Queries for moved categories still complete (forwarding + fetch).
	for cat := range final {
		id := sys.IssueQuery(0, cat, 1)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if rep2, _ := sys.QueryReport(0, id); !rep2.Done {
			t.Errorf("query for moved category %d incomplete", cat)
		}
		break
	}
}

func TestMetadataConflictResolution(t *testing.T) {
	sys, _, _ := buildSystem(t, 16)
	p := sys.peers[0]
	cat := catalog.CategoryID(0)
	p.handleMetadataUpdate(MetadataUpdateMsg{Entries: map[catalog.CategoryID]DCRTEntry{
		cat: {Cluster: 3, MoveCounter: 2},
	}})
	if got, _ := p.dcrt.Get(cat); got.Cluster != 3 || got.MoveCounter != 2 {
		t.Fatalf("update not applied: %+v", got)
	}
	// A stale update (lower counter) must be ignored (§6.1.2: "the
	// metadata information with the highest move counter value is kept").
	p.handleMetadataUpdate(MetadataUpdateMsg{Entries: map[catalog.CategoryID]DCRTEntry{
		cat: {Cluster: 5, MoveCounter: 1},
	}})
	if got, _ := p.dcrt.Get(cat); got.Cluster != 3 || got.MoveCounter != 2 {
		t.Errorf("stale update overwrote newer entry: %+v", got)
	}
	// An equal counter is also not newer.
	p.handleMetadataUpdate(MetadataUpdateMsg{Entries: map[catalog.CategoryID]DCRTEntry{
		cat: {Cluster: 6, MoveCounter: 2},
	}})
	if got, _ := p.dcrt.Get(cat); got.Cluster != 3 {
		t.Errorf("equal-counter update overwrote entry: %+v", got)
	}
}

func TestSystemConfigValidation(t *testing.T) {
	sys, inst, assign := buildSystem(t, 17)
	_ = sys
	if _, err := NewSystem(inst, assign[:3], nil, DefaultConfig()); err == nil {
		t.Error("short assignment should fail")
	}
}

func TestSystemWithoutPlacementUsesContributions(t *testing.T) {
	_, inst, assign := buildSystem(t, 18)
	sys, err := NewSystem(inst, assign, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range inst.Nodes {
		if sys.peers[k].StoredCount() != len(inst.Nodes[k].Contributed) {
			t.Fatalf("node %d stores %d docs, contributed %d",
				k, sys.peers[k].StoredCount(), len(inst.Nodes[k].Contributed))
		}
	}
}

func TestServedAndClusterLoads(t *testing.T) {
	sys, inst, _ := buildSystem(t, 19)
	cat := popularCategory(t, inst, 5)
	for i := 0; i < 50; i++ {
		sys.IssueQuery(model.NodeID(i%sys.NumPeers()), cat, 1)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range sys.ServedLoads() {
		total += l
	}
	if total == 0 {
		t.Error("no served load recorded")
	}
	// Hit counters count each request once per cluster entry: with a
	// static assignment, 50 queries mean exactly 50 cluster entries.
	var clTotal float64
	for _, l := range sys.ClusterLoads() {
		clTotal += l
	}
	if clTotal != 50 {
		t.Errorf("cluster hit total %g, want 50 (one per query)", clTotal)
	}
}
