// Musicshare: the paper's motivating scenario — an MP3 sharing community
// in the style of Napster/Gnutella. 4 MB "songs" in genre categories,
// Zipf-popular (chart-toppers dominate), served by a heterogeneous peer
// population. The example runs a listening session workload and reports
// what a user cares about (how fast songs are found) and what the system
// cares about (how evenly peers share the work).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"p2pshare"
	"p2pshare/internal/catalog"
	"p2pshare/internal/livenet"
)

func main() {
	// The paper's running example uses 3-minute MP3s (4 MB each) with
	// chart-driven Zipf popularity (θ=0.8 for documents, θ=0.7 across
	// genres).
	cfg := p2pshare.DefaultConfig()
	cfg.Documents = 8000 // songs
	cfg.Categories = 150 // genres
	cfg.Nodes = 800      // listeners sharing their libraries
	cfg.Clusters = 30
	cfg.Seed = 2026

	sys, err := p2pshare.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bal, err := sys.PlannedBalance()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("music community: %d songs, %d genres, %d peers, %d clusters\n",
		sys.NumDocuments(), sys.NumCategories(), sys.NumNodes(), cfg.Clusters)
	fmt.Printf("inter-cluster fairness after MaxFair: %.4f\n\n", bal.Fairness)

	// A listening session: 2000 searches, drawn from song popularity
	// (everyone wants the hits).
	rate, err := sys.RunWorkload(2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session: 2000 searches, %.1f%% found their %d results\n", rate*100, 3)

	// Individual searches: hot genre vs niche genre.
	hot := sys.CategoryKeywords(0)[:1] // most popular genre
	niche := sys.CategoryKeywords(140)[:1]
	for _, q := range []struct {
		label string
		kws   []string
	}{{"hot genre", hot}, {"niche genre", niche}} {
		res, err := sys.Query(11, q.kws, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %d results, %d hop(s), %v\n",
			q.label, res.Results, res.Hops, res.ResponseTime)
	}

	// Who did the work? Top-5 busiest peers vs the median — with random
	// target selection plus replica placement the spread stays modest.
	loads := sys.ServedLoads()
	sorted := append([]float64(nil), loads...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	fmt.Printf("\nwork distribution: busiest peers %v..., median %.0f requests\n",
		sorted[:5], sorted[len(sorted)/2])
	fmt.Printf("measured per-cluster fairness: %.4f\n", sys.MeasuredBalance().Fairness)

	liveBytes()
}

// liveBytes is the end-to-end data plane: a small live deployment with
// the content plane on, actual song bytes moving peer to peer —
// chunked, SHA-256-verified against the holder's manifest, flow-
// controlled. Search finds WHERE a song lives; Fetch brings it home.
func liveBytes() {
	fmt.Println("\n--- live bytes: fetching songs over TCP ---")

	// A small live community; 256 KB "songs" keep the example quick
	// (the protocol is the same at the paper's 4 MB).
	sh := livenet.Shape{
		Documents: 400, Categories: 12, Nodes: 24, Clusters: 4,
		Seed: 2026, DocBytes: 256 << 10,
	}
	inst, assign, place, err := sh.Build()
	if err != nil {
		log.Fatal(err)
	}
	// A new recording for peer 7 to share below (launch fixes the catalog).
	ids, err := inst.Catalog.AddDocuments(1, 0.03, 0.8, rand.New(rand.NewSource(99)))
	if err != nil {
		log.Fatal(err)
	}
	song := ids[0]
	if err := inst.AttachDocument(song, 7); err != nil {
		log.Fatal(err)
	}
	cluster, err := livenet.Launch(inst, assign, place, livenet.Options{
		Seed:    1,
		Content: &livenet.ContentConfig{},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Download a chart-topper from a peer that does not hold it: the
	// fetcher floods a manifest request toward the serving cluster,
	// picks the first replica holder that answers, and pulls chunks
	// under a sliding credit window, verifying each against the
	// manifest's hash table.
	// (The biggest hits are replicated onto every peer, so walk down the
	// chart until some peer is missing the song.)
	var hit *catalog.Document
	var listener *livenet.Node
search:
	for i := range inst.Catalog.Docs {
		for _, n := range cluster.Nodes {
			if !n.ContentStore().Has(inst.Catalog.Docs[i].ID) {
				hit, listener = &inst.Catalog.Docs[i], n
				break search
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	data, err := listener.Fetch(ctx, hit.ID)
	if err != nil {
		log.Fatalf("fetch doc %d: %v", hit.ID, err)
	}
	fmt.Printf("peer %d fetched song %d: %d KB verified in %v\n",
		listener.ID(), hit.ID, len(data)>>10, time.Since(start).Round(time.Millisecond))

	// Share a NEW recording: real bytes, not the synthetic stand-in.
	// Put installs the bytes and builds the manifest; Publish announces
	// the song to its genre's serving cluster; any peer can then Fetch
	// it and verify it is bit-for-bit the original.
	recording := make([]byte, 192<<10)
	rand.New(rand.NewSource(77)).Read(recording)
	publisher := cluster.Nodes[7]
	publisher.ContentStore().Put(song, recording)
	if err := publisher.Publish(song); err != nil {
		log.Fatal(err)
	}

	// The publish ack propagates the publisher into the serving
	// cluster's routing; retry briefly while that gossip settles.
	fan := cluster.Nodes[19]
	var got []byte
	for attempt := 0; ; attempt++ {
		fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
		got, err = fan.Fetch(fctx, song)
		fcancel()
		if err == nil || attempt >= 9 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		log.Fatalf("fetch published song %d: %v", song, err)
	}
	if !bytes.Equal(got, recording) {
		log.Fatalf("published song %d: fetched bytes differ from the original", song)
	}
	fmt.Printf("peer 7 published a new %d KB recording; peer %d fetched it bit-for-bit\n",
		len(recording)>>10, fan.ID())

	// What the data plane did, fleet-wide.
	var in, out, resumes int64
	for _, n := range cluster.Nodes {
		s := n.Stats()
		in += s["transfer_bytes_in"]
		out += s["transfer_bytes_out"]
		resumes += s["transfer_resumes"]
	}
	fmt.Printf("fleet transfer totals: %d KB in, %d KB out, %d resumes\n",
		in>>10, out>>10, resumes)
}
