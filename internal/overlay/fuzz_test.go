package overlay

import (
	"math"
	"math/rand"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// TestProtocolFuzz drives random interleavings of every protocol the
// overlay speaks — queries, publishes, joins, leaves, popularity drift,
// adaptation rounds — and checks global invariants after each step. The
// goal is not a specific outcome but the absence of divergence: no
// livelock, no lost contributions, no corrupted metadata, bookkeeping
// that stays consistent with first-principles recomputation.
func TestProtocolFuzz(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run("", func(t *testing.T) {
			fuzzRun(t, seed)
		})
	}
}

func fuzzRun(t *testing.T, seed int64) {
	sys, inst, _ := buildSystem(t, seed)
	rng := rand.New(rand.NewSource(seed))
	dead := make(map[model.NodeID]bool)

	alive := func() model.NodeID {
		for tries := 0; tries < 50; tries++ {
			n := model.NodeID(rng.Intn(sys.NumPeers()))
			if !dead[n] {
				return n
			}
		}
		t.Fatal("no alive node found")
		return 0
	}

	for step := 0; step < 60; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // queries dominate, like real systems
			cat := catalog.CategoryID(rng.Intn(inst.CatCount()))
			sys.IssueQuery(alive(), cat, 1+rng.Intn(5))
		case 5: // publish a new document
			ids, err := inst.Catalog.AddDocuments(1, 0.01, 0.8, rng)
			if err != nil {
				t.Fatal(err)
			}
			n := alive()
			if err := inst.AttachDocument(ids[0], n); err != nil {
				t.Fatal(err)
			}
			if err := sys.Publish(n, ids[0]); err != nil {
				t.Fatal(err)
			}
		case 6: // a newcomer joins (free rider)
			id := sys.AddNode(float64(1+rng.Intn(5)), 1<<40)
			if err := sys.Join(id, alive()); err != nil {
				t.Fatal(err)
			}
		case 7: // somebody leaves (keep a healthy majority)
			if len(dead) < sys.NumPeers()/5 {
				n := alive()
				sys.Leave(n)
				dead[n] = true
			}
		case 8: // content popularity drifts
			inst.Catalog.ShiftPopularity(0.8, rng)
		case 9: // an adaptation round
			if _, err := sys.RunAdaptation(2); err != nil {
				t.Fatalf("step %d adaptation: %v", step, err)
			}
		}
		// The network must always drain (loop detection, bounded retries).
		if err := sys.Run(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkInvariants(t, sys, inst, dead, step)
	}
}

func checkInvariants(t *testing.T, sys *System, inst *model.Instance, dead map[model.NodeID]bool, step int) {
	t.Helper()
	for _, p := range sys.peers {
		if dead[p.id] {
			continue
		}
		// 1. Contributors store their contributions (the §4.3.3 baseline
		// assumption: "each node will be able to store locally at least
		// the documents it contributes") — unless the serving category
		// moved away and the node neither contributes it anymore... it
		// always contributes; contributors keep their docs in our
		// reactToMove. Verify.
		for _, di := range inst.Nodes[p.id].Contributed {
			if !p.Stores(di) {
				t.Fatalf("step %d: node %d lost contributed doc %d", step, p.id, di)
			}
		}
		// 2. DCRT entries reference valid clusters.
		p.dcrt.Range(func(cat catalog.CategoryID, e DCRTEntry) bool {
			if int(e.Cluster) < 0 || int(e.Cluster) >= inst.NumClusters {
				t.Fatalf("step %d: node %d DCRT[%d] -> invalid cluster %d", step, p.id, cat, e.Cluster)
			}
			return true
		})
		// 3. The on-demand stored popularity matches a recomputation from
		// the DT (guards against the helper and the DT diverging).
		var want float64
		for di := range p.dt {
			want += inst.Catalog.Doc(di).Popularity
		}
		if math.Abs(p.storedPopularity()-want) > 1e-9 {
			t.Fatalf("step %d: node %d storedPopularity %g != recomputed %g",
				step, p.id, p.storedPopularity(), want)
		}
		// 4. byCat index consistent with the DT.
		count := 0
		for cat, docs := range p.byCat {
			for _, di := range docs {
				if p.dt[di] != cat {
					t.Fatalf("step %d: node %d byCat[%d] lists doc %d with dt cat %d",
						step, p.id, cat, di, p.dt[di])
				}
				count++
			}
		}
		if count != len(p.dt) {
			t.Fatalf("step %d: node %d byCat holds %d docs, dt %d", step, p.id, count, len(p.dt))
		}
		// 5. No peer lists itself in its NRT.
		for cl, list := range p.nrt {
			for _, n := range list {
				if n == p.id {
					t.Fatalf("step %d: node %d lists itself in NRT[%d]", step, p.id, cl)
				}
			}
		}
	}
}
