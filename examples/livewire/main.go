// Livewire: the same architecture over real TCP sockets. Every peer is a
// goroutine-driven process with its own listener; queries and publishes
// travel as internal/wire frames on the loopback network — no simulator
// involved. This is the bridge from the reproducible simulation to an
// actual deployment.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"p2pshare/internal/livenet"
	"p2pshare/internal/model"
	"p2pshare/internal/replica"
)

func main() {
	// A small community: 40 live TCP peers, 800 documents, 16 categories,
	// 5 clusters.
	cfg := model.DefaultConfig()
	cfg.Catalog.NumDocs = 800
	cfg.Catalog.NumCats = 16
	cfg.NumNodes = 40
	cfg.NumClusters = 5
	cfg.Seed = 2026

	d, err := replica.Deploy(cfg, replica.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	inst := d.Inst

	// A new document for node 7 to publish below (launch fixes the catalog).
	ids, err := inst.Catalog.AddDocuments(1, 0.03, 0.8, rand.New(rand.NewSource(99)))
	if err != nil {
		log.Fatal(err)
	}
	if err := inst.AttachDocument(ids[0], 7); err != nil {
		log.Fatal(err)
	}

	cluster, err := livenet.Launch(inst, d.Assign, d.Place, livenet.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("%d live peers listening (e.g. node 0 at %s)\n",
		len(cluster.Nodes), cluster.Nodes[0].Addr())
	fmt.Printf("MaxFair fairness of the deployment: %.4f\n\n", d.MaxFair.Fairness)

	// Real queries over real sockets.
	for _, q := range []struct {
		origin int
		cat    int
		m      int
	}{{3, 0, 5}, {17, 4, 3}, {29, 9, 2}} {
		start := time.Now()
		out, err := cluster.Nodes[q.origin].Query(
			inst.Catalog.Cats[q.cat].ID, q.m, 5*time.Second)
		if err != nil {
			log.Fatalf("query from node %d: %v", q.origin, err)
		}
		fmt.Printf("node %2d asks category %2d for %d docs: got %d in %d hop(s), %v wall-clock\n",
			q.origin, q.cat, q.m, len(out.Docs), out.Hops, time.Since(start).Round(time.Millisecond))
	}

	// Publish the new document from node 7 and look for it from node 22.
	// Queries follow the launch placement, which a publish does not
	// update: the broad query finds the document only when node 7 is
	// among the nodes that answer.
	if err := cluster.Nodes[7].Publish(ids[0]); err != nil {
		log.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the publish propagate
	cat := inst.Catalog.Doc(ids[0]).Categories[0]
	out, err := cluster.Nodes[22].Query(cat, len(inst.Catalog.Cats[cat].Docs), 5*time.Second)
	if err != nil && len(out.Docs) == 0 {
		log.Fatal(err)
	}
	found := false
	for _, d := range out.Docs {
		if d == ids[0] {
			found = true
		}
	}
	fmt.Printf("\nnode 7 published doc %d; node 22's broad query %s it among %d results\n",
		ids[0], map[bool]string{true: "found", false: "did not find"}[found], len(out.Docs))

	// The serving load spread across live peers.
	var total int64
	busiest := int64(0)
	for _, n := range cluster.Nodes {
		s := n.Served()
		total += s
		if s > busiest {
			busiest = s
		}
	}
	fmt.Printf("served %d requests total; busiest peer handled %d\n", total, busiest)
}
