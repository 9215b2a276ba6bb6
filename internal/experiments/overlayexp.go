package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"p2pshare/internal/catalog"

	"p2pshare/internal/chord"
	"p2pshare/internal/core"
	"p2pshare/internal/fairness"
	"p2pshare/internal/gnutella"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/overlay"
	"p2pshare/internal/replica"
	"p2pshare/internal/trace"
	"p2pshare/internal/workload"
)

// overlayScale shrinks a scale's node count for message-level simulation:
// the paper-scale instance has 20 000 nodes, which the discrete-event
// simulator handles, but hop statistics converge with far fewer queries
// than full scale requires. The content shape is preserved.
func overlayScale(s Scale) model.Config {
	cfg := s.Config()
	if s == ScalePaper {
		// Keep the cluster structure but a tractable message volume.
		cfg.Catalog.NumDocs = 60000
		cfg.NumNodes = 6000
		cfg.Catalog.NumCats = 500
		cfg.NumClusters = 100
	} else {
		cfg.Catalog.NumDocs = 6000
		cfg.NumNodes = 600
		cfg.Catalog.NumCats = 120
		cfg.NumClusters = 24
	}
	return cfg
}

// buildOverlay deploys cfg under seed (instance → MaxFair → membership
// → placement) and boots the overlay on it with ocfg, seeded alike.
func buildOverlay(cfg model.Config, seed int64, ocfg overlay.Config) (*overlay.System, *replica.Deployment, error) {
	cfg.Seed = seed
	d, err := replica.Deploy(cfg, replica.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	ocfg.Seed = seed
	sys, err := overlay.NewSystem(d.Inst, d.Assign, d.Place, ocfg)
	if err != nil {
		return nil, nil, err
	}
	return sys, d, nil
}

// QueryHopsResult reports the §3.3 response-time experiment.
type QueryHopsResult struct {
	Queries   int
	Completed int
	Failed    int
	// Hops statistics over completed queries.
	MeanHops, P95Hops, MaxHops float64
	// ResponseMs statistics over completed queries (simulated
	// wide-area latencies, 10–100 ms per message).
	MeanResponseMs, P95ResponseMs float64
	// LargestCluster is the worst-case §3.3 hop bound.
	LargestCluster int
	// IntraFairness is the mean Jain index of served load within
	// multi-node clusters.
	IntraFairness float64
}

// QueryHops runs a popularity-faithful query workload over the full
// overlay and measures hops, response times, and intra-cluster load
// spread — the paper's §3.3 claims: few hops in the common case, a
// cluster-size worst-case bound, and balanced load via random target
// selection.
func QueryHops(scale Scale, queries int, seed int64) (*QueryHopsResult, error) {
	if queries <= 0 {
		queries = 2000
	}
	sys, d, err := buildOverlay(overlayScale(scale), seed, overlay.DefaultConfig())
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(d.Inst, 3, seed+7)
	if err != nil {
		return nil, err
	}
	type issued struct {
		origin model.NodeID
		id     uint64
	}
	all := make([]issued, 0, queries)
	for i := 0; i < queries; i++ {
		q := gen.Next()
		id := sys.IssueQuery(q.Origin, q.Category, q.M)
		all = append(all, issued{q.Origin, id})
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	var hops, resp metrics.Histogram
	completed := 0
	for _, q := range all {
		rep, ok := sys.QueryReport(q.origin, q.id)
		if !ok || !rep.Done {
			continue
		}
		completed++
		hops.Observe(float64(rep.Hops))
		resp.ObserveDuration(rep.ResponseTime)
	}
	// Cluster sizes and intra-cluster fairness from membership truth.
	largest := 0
	var fsum float64
	fn := 0
	served := sys.ServedLoads()
	for _, nodes := range d.Mem.ClusterNodes {
		if len(nodes) > largest {
			largest = len(nodes)
		}
		if len(nodes) < 2 {
			continue
		}
		xs := make([]float64, len(nodes))
		for i, n := range nodes {
			xs[i] = served[n]
		}
		fsum += fairness.Jain(xs)
		fn++
	}
	res := &QueryHopsResult{
		Queries:        queries,
		Completed:      completed,
		Failed:         sys.FailedQueries(),
		MeanHops:       hops.Mean(),
		P95Hops:        hops.Quantile(0.95),
		MaxHops:        hops.Max(),
		MeanResponseMs: resp.Mean(),
		P95ResponseMs:  resp.Quantile(0.95),
		LargestCluster: largest,
	}
	if fn > 0 {
		res.IntraFairness = fsum / float64(fn)
	}
	return res, nil
}

// RoutingRow compares object-location cost across systems.
type RoutingRow struct {
	System string
	// MeanHops to reach a node holding the requested document.
	MeanHops float64
	// MeanMessages per query (flooding cost for Gnutella; hops+1 for the
	// point-to-point systems).
	MeanMessages float64
	// SuccessRate is the fraction of requests that found the document.
	SuccessRate float64
}

// RoutingComparison pits the paper's architecture against Chord lookups
// and Gnutella TTL flooding for locating a popularity-sampled document —
// the quantified form of §2's response-time argument.
func RoutingComparison(scale Scale, queries int, seed int64) ([]RoutingRow, error) {
	if queries <= 0 {
		queries = 1500
	}
	cfg := overlayScale(scale)

	// Ours: hop count of the first completed result per query.
	sys, d, err := buildOverlay(cfg, seed, overlay.DefaultConfig())
	if err != nil {
		return nil, err
	}
	inst := d.Inst
	gen, err := workload.NewGenerator(inst, 1, seed+7)
	if err != nil {
		return nil, err
	}
	type issued struct {
		origin model.NodeID
		id     uint64
	}
	all := make([]issued, 0, queries)
	for i := 0; i < queries; i++ {
		q := gen.Next()
		all = append(all, issued{q.Origin, sys.IssueQuery(q.Origin, q.Category, 1)})
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	var ours metrics.Histogram
	oursDone := 0
	for _, q := range all {
		if rep, ok := sys.QueryReport(q.origin, q.id); ok && rep.Done {
			oursDone++
			ours.Observe(float64(rep.Hops))
		}
	}
	rows := []RoutingRow{{
		System:       "p2pshare (this paper)",
		MeanHops:     ours.Mean(),
		MeanMessages: ours.Mean() + 1,
		SuccessRate:  float64(oursDone) / float64(queries),
	}}

	// Chord: O(log N) lookup to the single hash-placed owner.
	ring, err := chord.New(cfg.NumNodes)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 13))
	gen2, err := workload.NewGenerator(inst, 1, seed+7)
	if err != nil {
		return nil, err
	}
	var chordHops metrics.Histogram
	for i := 0; i < queries; i++ {
		q := gen2.Next()
		// The query targets a document of the sampled category; pick one
		// of its documents by the same popularity logic.
		docs := inst.Catalog.Cats[q.Category].Docs
		d := docs[rng.Intn(len(docs))]
		_, hops := ring.Lookup(chord.DocKey(int(d)), rng.Intn(ring.N()))
		chordHops.Observe(float64(hops))
	}
	rows = append(rows, RoutingRow{
		System:       "chord (DHT)",
		MeanHops:     chordHops.Mean(),
		MeanMessages: chordHops.Mean() + 1,
		SuccessRate:  1, // structured overlays always locate stored keys
	})

	// Gnutella: TTL-bounded flooding to any contributor of the document.
	over, err := gnutella.New(cfg.NumNodes, 5, rng)
	if err != nil {
		return nil, err
	}
	gen3, err := workload.NewGenerator(inst, 1, seed+7)
	if err != nil {
		return nil, err
	}
	const ttl = 7 // Gnutella's classic default TTL
	var gHops, gMsgs metrics.Histogram
	found := 0
	for i := 0; i < queries; i++ {
		q := gen3.Next()
		docs := inst.Catalog.Cats[q.Category].Docs
		d := docs[rng.Intn(len(docs))]
		holders := map[int]bool{int(inst.Contributors[d]): true}
		res := over.Search(int(q.Origin)%over.N(), ttl, holders)
		gMsgs.Observe(float64(res.Messages))
		if res.Found {
			found++
			gHops.Observe(float64(res.Hops))
		}
	}
	rows = append(rows, RoutingRow{
		System:       "gnutella (flooding, ttl=7)",
		MeanHops:     gHops.Mean(),
		MeanMessages: gMsgs.Mean(),
		SuccessRate:  float64(found) / float64(queries),
	})
	return rows, nil
}

// DynamicEpoch is one epoch of the end-to-end dynamic experiment.
type DynamicEpoch struct {
	Epoch int
	// MeasuredFairness is the fairness of measured normalized loads at
	// the end of the epoch's workload, before any rebalancing.
	MeasuredFairness float64
	// AfterFairness is the (estimated) fairness after adaptation; equal
	// to MeasuredFairness with adaptation off or no rebalance needed.
	AfterFairness float64
	// PlannedFairness is the ground-truth quality of the *current*
	// assignment against the current catalog popularities (the planning
	// formula of §4.3.3), evaluated after any adaptation this epoch.
	PlannedFairness float64
	Moves           int
	TransferMB      float64
}

// DynamicResult is the full §6 end-to-end run.
type DynamicResult struct {
	Adaptive bool
	Epochs   []DynamicEpoch
	// MinMeasured is the worst measured fairness across epochs.
	MinMeasured float64
}

// DynamicAdaptation drives epochs of workload over the live overlay with
// a persistent demand shift: epoch 0 runs the demand MaxFair planned for;
// at epoch 1 content popularity re-ranks at the category level (§6.1's
// "content popularity varies" trigger — the same upheaval Figure 5 uses)
// and STAYS shifted, and a flash crowd of new documents is published live
// through the §6.2 protocol for good measure. Without adaptation the old
// assignment serves the new demand badly for every remaining epoch; with
// adaptation the epoch-1 round rebalances. This demonstrates the §6
// machinery keeping inter-cluster fairness high on the fly.
func DynamicAdaptation(scale Scale, epochs, queriesPerEpoch int, adaptive bool, seed int64) (*DynamicResult, error) {
	if epochs <= 0 {
		epochs = 4
	}
	cfg := overlayScale(scale)
	if queriesPerEpoch <= 0 {
		// Enough samples per cluster that the measured fairness reflects
		// demand, not sampling noise.
		queriesPerEpoch = 50 * cfg.NumClusters
	}
	sys, d, err := buildOverlay(cfg, seed, overlay.DefaultConfig())
	if err != nil {
		return nil, err
	}
	inst := d.Inst
	rng := rand.New(rand.NewSource(seed + 99))
	out := &DynamicResult{Adaptive: adaptive, MinMeasured: 1}
	for e := 0; e < epochs; e++ {
		if e == 1 {
			// The persistent demand upheaval plus a live flash crowd.
			inst.Catalog.ShiftCategoryPopularity(0.8, rng)
			ids, err := workload.FlashCrowd(inst, 0.02, 0.10, rng)
			if err != nil {
				return nil, err
			}
			for _, d := range ids {
				if err := sys.Publish(inst.Contributors[d], d); err != nil {
					return nil, err
				}
			}
			if err := sys.Run(); err != nil {
				return nil, err
			}
		}
		gen, err := workload.NewGenerator(inst, 1, seed+int64(e)*31)
		if err != nil {
			return nil, err
		}
		for i := 0; i < queriesPerEpoch; i++ {
			q := gen.Next()
			sys.IssueQuery(q.Origin, q.Category, q.M)
		}
		if err := sys.Run(); err != nil {
			return nil, err
		}
		ep := DynamicEpoch{Epoch: e}
		ep.MeasuredFairness = fairness.Jain(sys.MeasuredNormalizedLoads())
		ep.AfterFairness = ep.MeasuredFairness
		if adaptive {
			rep, err := sys.RunAdaptation(4)
			if err != nil {
				return nil, err
			}
			if rep.Rebalanced {
				ep.AfterFairness = rep.FairnessAfter
				ep.Moves = len(rep.Moves)
				ep.TransferMB = float64(rep.TransferBytes) / (1 << 20)
			}
		}
		planned, err := assignmentFairness(inst, sys.Assignment())
		if err != nil {
			return nil, err
		}
		ep.PlannedFairness = planned
		if ep.MeasuredFairness < out.MinMeasured {
			out.MinMeasured = ep.MeasuredFairness
		}
		out.Epochs = append(out.Epochs, ep)
		sys.ResetHitCounters()
	}
	return out, nil
}

// assignmentFairness evaluates an assignment's fairness against the
// instance's current popularities using the §4.3.3 planning formula.
func assignmentFairness(inst *model.Instance, assign []model.ClusterID) (float64, error) {
	st, err := core.NewState(inst)
	if err != nil {
		return 0, err
	}
	for c, cl := range assign {
		if cl == model.NoCluster {
			continue
		}
		if err := st.Assign(catalog.CategoryID(c), cl); err != nil {
			return 0, err
		}
	}
	return st.Fairness(), nil
}

// RebalanceCostResult measures the lazy rebalancing protocol's actual
// traffic in the live overlay (the simulated counterpart of the §6.1.3
// example).
type RebalanceCostResult struct {
	// MeasuredFairness is what the chosen leader saw before rebalancing.
	MeasuredFairness float64
	Moves            int
	TransferCount    int
	TransferMB       float64
	MeanTransferMB   float64
	// ActiveFraction is the share of nodes engaged in a transfer.
	ActiveFraction float64
	// CompletionSeconds is the simulated time from the start of the
	// adaptation round until the last bulk transfer lands, under a
	// 10 MB/s per-link bandwidth model — the paper's point that the big
	// rebalancing moves as many parallel "routine-sized" downloads.
	CompletionSeconds float64
}

// RebalanceCost skews the workload onto one cluster, runs an adaptation
// round, and reports the transfer traffic the lazy rebalancing protocol
// generated.
func RebalanceCost(scale Scale, seed int64) (*RebalanceCostResult, error) {
	sys, d, err := buildOverlay(overlayScale(scale), seed, overlay.DefaultConfig())
	if err != nil {
		return nil, err
	}
	inst, assign := d.Inst, d.Assign
	// Skew: all queries target one cluster's categories. Pick the cluster
	// hosting the most categories — a single-category cluster could not
	// be rebalanced at category granularity at all (the §7(vi) open
	// problem), which would make the measurement trivially empty.
	counts := make([]int, inst.NumClusters)
	for _, cl := range assign {
		if cl != model.NoCluster {
			counts[cl]++
		}
	}
	hottest := model.ClusterID(0)
	for c, n := range counts {
		if n > counts[hottest] {
			hottest = model.ClusterID(c)
		}
	}
	var hotCats []int
	for c, cl := range assign {
		if cl == hottest {
			hotCats = append(hotCats, c)
		}
	}
	if len(hotCats) == 0 {
		return nil, fmt.Errorf("experiments: hottest cluster has no categories")
	}
	queries := 30 * sys.NumPeers() / 10
	for i := 0; i < queries; i++ {
		origin := model.NodeID(i % sys.NumPeers())
		sys.IssueQuery(origin, catalog.CategoryID(hotCats[i%len(hotCats)]), 1)
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	// Bulk transfers pay transmission time at 10 MB/s per link; the
	// recorder timestamps each one so we can report when the rebalancing
	// data movement actually finished.
	sys.Net().SetBandwidth(10 << 20)
	rec := trace.NewRecorder()
	sys.Net().SetObserver(rec)
	start := sys.Net().Now()
	rep, err := sys.RunAdaptation(4)
	if err != nil {
		return nil, err
	}
	sys.Net().SetObserver(nil)
	sys.Net().SetBandwidth(0)
	res := &RebalanceCostResult{
		MeasuredFairness: rep.MeasuredFairness,
		Moves:            len(rep.Moves),
		TransferCount:    rep.TransferCount,
		TransferMB:       float64(rep.TransferBytes) / (1 << 20),
	}
	if rep.TransferCount > 0 {
		res.MeanTransferMB = res.TransferMB / float64(rep.TransferCount)
	}
	res.ActiveFraction = float64(rep.EngagedNodes) / float64(sys.NumPeers())
	var last time.Duration
	for _, e := range rec.ByKind("transfer") {
		if e.At > last {
			last = e.At
		}
	}
	if last > start {
		res.CompletionSeconds = (last - start).Seconds()
	}
	return res, nil
}
