package experiments

import (
	"p2pshare/internal/core"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/overlay"
	"p2pshare/internal/replica"
	"p2pshare/internal/workload"
)

// ConfigRow is one point of the §7(ii) cluster-count sweep.
type ConfigRow struct {
	Clusters int
	// MeanClusterMembers is the average cluster membership (a node in
	// several clusters counts once per membership).
	MeanClusterMembers float64
	// Fairness is MaxFair's inter-cluster result.
	Fairness float64
	// MeanHops and P95Hops over a query workload.
	MeanHops, P95Hops float64
	// MaxStoredMB is the heaviest node's storage after replica placement.
	MaxStoredMB float64
}

// ConfigSweep explores the paper's §7(ii) open question — "optimal system
// configurations, in terms of the number of clusters versus the number of
// nodes per cluster" — by sweeping the cluster count at a fixed
// population. Fewer clusters mean larger worst-case search scope and more
// storage per node (more categories per cluster to replicate); more
// clusters mean a harder balancing problem and more routing state.
func ConfigSweep(scale Scale, clusterCounts []int, seed int64) ([]ConfigRow, error) {
	if len(clusterCounts) == 0 {
		clusterCounts = []int{6, 12, 24, 48, 96}
	}
	base := overlayScale(scale)
	out := make([]ConfigRow, 0, len(clusterCounts))
	for _, nc := range clusterCounts {
		cfg := base
		cfg.NumClusters = nc
		sys, d, err := buildOverlay(cfg, seed, overlay.DefaultConfig())
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(d.Inst, 3, seed+7)
		if err != nil {
			return nil, err
		}
		const queries = 800
		type issued struct {
			origin model.NodeID
			id     uint64
		}
		all := make([]issued, 0, queries)
		for i := 0; i < queries; i++ {
			q := gen.Next()
			all = append(all, issued{q.Origin, sys.IssueQuery(q.Origin, q.Category, q.M)})
		}
		if err := sys.Run(); err != nil {
			return nil, err
		}
		var hops metrics.Histogram
		for _, q := range all {
			if rep, ok := sys.QueryReport(q.origin, q.id); ok && rep.Done {
				hops.Observe(float64(rep.Hops))
			}
		}
		var members int
		for _, nodes := range d.Mem.ClusterNodes {
			members += len(nodes)
		}
		out = append(out, ConfigRow{
			Clusters:           nc,
			MeanClusterMembers: float64(members) / float64(nc),
			Fairness:           d.MaxFair.Fairness,
			MeanHops:           hops.Mean(),
			P95Hops:            hops.Quantile(0.95),
			MaxStoredMB:        float64(d.Place.MaxStoredBytes()) / (1 << 20),
		})
	}
	return out, nil
}

// PlacementRow compares the paper's hot-set policy with the §7(vii)
// proportional alternative.
type PlacementRow struct {
	Policy string
	// MeanIntraFairness over multi-node clusters.
	MeanIntraFairness float64
	MinIntraFairness  float64
	MaxStoredMB       float64
	TotalReplicas     int
	CapacityDrops     int
}

// PlacementComparison runs both intra-cluster placement policies on the
// same balanced instance — the §7(vii) open question ("alternative, more
// space-efficient document placement policies ... that guarantee
// intra-cluster load balancing") made measurable.
func PlacementComparison(scale Scale, seed int64) ([]PlacementRow, error) {
	cfg := scale.Config()
	cfg.Seed = seed
	inst, err := model.Generate(cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.MaxFair(inst, core.Options{})
	if err != nil {
		return nil, err
	}
	mem, err := model.NewMembership(inst, res.Assignment)
	if err != nil {
		return nil, err
	}
	type policy struct {
		name string
		run  func() (*replica.Placement, error)
	}
	rcfg := replica.DefaultConfig()
	policies := []policy{
		{"hot-set 35% (paper)", func() (*replica.Placement, error) {
			return replica.Place(inst, res.Assignment, mem, rcfg)
		}},
		{"proportional (§7 vii)", func() (*replica.Placement, error) {
			return replica.PlaceProportional(inst, res.Assignment, mem, rcfg)
		}},
	}
	out := make([]PlacementRow, 0, len(policies))
	for _, pol := range policies {
		place, err := pol.run()
		if err != nil {
			return nil, err
		}
		fs := place.IntraClusterFairness(mem)
		var sum float64
		min := 1.0
		nMulti := 0
		for c, f := range fs {
			if len(mem.ClusterNodes[c]) < 2 {
				continue
			}
			sum += f
			if f < min {
				min = f
			}
			nMulti++
		}
		total := 0
		for _, r := range place.Replicas {
			total += r
		}
		row := PlacementRow{
			Policy:        pol.name,
			MaxStoredMB:   float64(place.MaxStoredBytes()) / (1 << 20),
			TotalReplicas: total,
			CapacityDrops: place.CapacityDrops,
		}
		if nMulti > 0 {
			row.MeanIntraFairness = sum / float64(nMulti)
			row.MinIntraFairness = min
		}
		out = append(out, row)
	}
	return out, nil
}
