// Package replica implements the paper's intra-cluster document placement
// policy (§4.3.3).
//
// Random target-node selection only balances load within a cluster when
// every node holds (roughly) the same stored popularity. The paper's
// policy achieves that cheaply:
//
//  1. every node keeps the documents it contributed;
//  2. the top-m most popular documents of the cluster — those covering a
//     configurable share of the cluster's probability mass (35% in the
//     paper) — are replicated on *every* node of the cluster;
//  3. the remaining documents receive n_reps replicas each, dealt
//     greedily to the least-popular node with spare capacity, equalizing
//     the per-node stored popularity.
package replica

import (
	"fmt"
	"sort"

	"p2pshare/internal/catalog"
	"p2pshare/internal/core"
	"p2pshare/internal/fairness"
	"p2pshare/internal/model"
)

// Config tunes the placement policy.
type Config struct {
	// NReps is the desired number of replicas per non-hot document
	// (paper examples use 2 and 5).
	NReps int
	// HotMass is the share of each cluster's probability mass whose
	// documents are replicated on every node (paper: 0.35).
	HotMass float64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config { return Config{NReps: 2, HotMass: 0.35} }

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.NReps < 1 {
		return fmt.Errorf("replica: NReps must be >= 1, got %d", c.NReps)
	}
	if c.HotMass < 0 || c.HotMass > 1 {
		return fmt.Errorf("replica: HotMass %g out of [0,1]", c.HotMass)
	}
	return nil
}

// Placement is the result of running the policy over all clusters.
type Placement struct {
	// Stored lists the documents stored by each node (contributions,
	// hot replicas, and dealt replicas), indexed by node id.
	Stored [][]catalog.DocID
	// StoredPopularity is the summed popularity each node stores.
	StoredPopularity []float64
	// StoredBytes is the storage each node uses.
	StoredBytes []int64
	// HotDocs lists, per cluster, the documents replicated on every
	// member node.
	HotDocs [][]catalog.DocID
	// Replicas counts the placed copies of each document system-wide.
	Replicas []int
	// CapacityDrops counts replicas that could not be placed because no
	// member node had spare capacity (reported, never silently ignored).
	CapacityDrops int
}

// Place runs the policy for every cluster under the given assignment and
// membership.
func Place(inst *model.Instance, assign []model.ClusterID, mem *model.Membership, cfg Config) (*Placement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(inst.Nodes)
	p := &Placement{
		Stored:           make([][]catalog.DocID, n),
		StoredPopularity: make([]float64, n),
		StoredBytes:      make([]int64, n),
		HotDocs:          make([][]catalog.DocID, inst.NumClusters),
		Replicas:         make([]int, len(inst.Catalog.Docs)),
	}
	has := make([]map[catalog.DocID]bool, n)
	for k := range has {
		has[k] = make(map[catalog.DocID]bool)
	}

	store := func(k model.NodeID, di catalog.DocID) {
		d := &inst.Catalog.Docs[di]
		p.Stored[k] = append(p.Stored[k], di)
		p.StoredPopularity[k] += d.Popularity
		p.StoredBytes[k] += d.Size
		p.Replicas[di]++
		has[k][di] = true
	}

	// 1. Contributions stay home.
	for k := range inst.Nodes {
		for _, di := range inst.Nodes[k].Contributed {
			store(model.NodeID(k), di)
		}
	}

	// 2 + 3 per cluster.
	for c := 0; c < inst.NumClusters; c++ {
		cl := model.ClusterID(c)
		nodes := mem.NodesOf(cl)
		if len(nodes) == 0 {
			continue
		}
		docs := model.ClusterDocs(inst, assign, cl)
		if len(docs) == 0 {
			continue
		}
		// Descending popularity; stable for determinism.
		sort.SliceStable(docs, func(i, j int) bool {
			return inst.Catalog.Docs[docs[i]].Popularity > inst.Catalog.Docs[docs[j]].Popularity
		})
		var clusterMass float64
		for _, di := range docs {
			clusterMass += inst.Catalog.Docs[di].Popularity
		}

		// 2. Hot set: smallest prefix covering HotMass of the cluster.
		var hotCut int
		var cum float64
		for hotCut < len(docs) && cum < cfg.HotMass*clusterMass {
			cum += inst.Catalog.Docs[docs[hotCut]].Popularity
			hotCut++
		}
		hot := docs[:hotCut]
		p.HotDocs[cl] = append([]catalog.DocID(nil), hot...)
		for _, di := range hot {
			size := inst.Catalog.Docs[di].Size
			for _, k := range nodes {
				if has[k][di] {
					continue
				}
				if p.StoredBytes[k]+size > inst.Nodes[k].StorageCap {
					p.CapacityDrops++
					continue
				}
				store(k, di)
			}
		}

		// 3. Cold documents: NReps copies each, dealt to the node with the
		// least stored popularity that has room and lacks the doc. A
		// small heap would be asymptotically nicer; clusters are small
		// (hundreds of nodes) so a linear scan keeps the code obvious.
		for _, di := range docs[hotCut:] {
			d := &inst.Catalog.Docs[di]
			for have := p.Replicas[di]; have < cfg.NReps; have++ {
				best := model.NodeID(-1)
				for _, k := range nodes {
					if has[k][di] || p.StoredBytes[k]+d.Size > inst.Nodes[k].StorageCap {
						continue
					}
					if best == -1 || p.StoredPopularity[k] < p.StoredPopularity[best] {
						best = k
					}
				}
				if best == -1 {
					p.CapacityDrops++
					break
				}
				store(best, di)
			}
		}
	}
	return p, nil
}

// Deployment is one complete derivation of the paper's architecture:
// the synthetic instance (§4.4), its MaxFair assignment (§4.2), the
// cluster membership that follows (§3.1) and the replica placement
// (§4.3.3).
type Deployment struct {
	Inst   *model.Instance
	Assign []model.ClusterID
	Mem    *model.Membership
	Place  *Placement
	// MaxFair is the balancing result Assign comes from (fairness and
	// the live state for later rebalancing).
	MaxFair *core.Result
}

// Deploy generates the instance cfg describes, balances it with MaxFair,
// derives the membership and places replicas under rcfg — the one order
// every full deployment is built in.
func Deploy(cfg model.Config, rcfg Config) (*Deployment, error) {
	inst, err := model.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	res, err := core.MaxFair(inst, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("maxfair: %w", err)
	}
	mem, err := model.NewMembership(inst, res.Assignment)
	if err != nil {
		return nil, fmt.Errorf("membership: %w", err)
	}
	place, err := Place(inst, res.Assignment, mem, rcfg)
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	return &Deployment{Inst: inst, Assign: res.Assignment, Mem: mem, Place: place, MaxFair: res}, nil
}

// PlaceProportional is the §7(vii) alternative placement policy: instead
// of the hot-set rule, each document's replica count is proportional to
// its popularity share within its cluster, spending the same total budget
// the paper's policy would (|docs|·NReps), with at least one copy each.
// Replicas are dealt to the least-popular node with room, like Place.
func PlaceProportional(inst *model.Instance, assign []model.ClusterID, mem *model.Membership, cfg Config) (*Placement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(inst.Nodes)
	p := &Placement{
		Stored:           make([][]catalog.DocID, n),
		StoredPopularity: make([]float64, n),
		StoredBytes:      make([]int64, n),
		HotDocs:          make([][]catalog.DocID, inst.NumClusters),
		Replicas:         make([]int, len(inst.Catalog.Docs)),
	}
	has := make([]map[catalog.DocID]bool, n)
	for k := range has {
		has[k] = make(map[catalog.DocID]bool)
	}
	store := func(k model.NodeID, di catalog.DocID) {
		d := &inst.Catalog.Docs[di]
		p.Stored[k] = append(p.Stored[k], di)
		p.StoredPopularity[k] += d.Popularity
		p.StoredBytes[k] += d.Size
		p.Replicas[di]++
		has[k][di] = true
	}
	for k := range inst.Nodes {
		for _, di := range inst.Nodes[k].Contributed {
			store(model.NodeID(k), di)
		}
	}
	for c := 0; c < inst.NumClusters; c++ {
		cl := model.ClusterID(c)
		nodes := mem.NodesOf(cl)
		if len(nodes) == 0 {
			continue
		}
		docs := model.ClusterDocs(inst, assign, cl)
		if len(docs) == 0 {
			continue
		}
		sort.SliceStable(docs, func(i, j int) bool {
			return inst.Catalog.Docs[docs[i]].Popularity > inst.Catalog.Docs[docs[j]].Popularity
		})
		var clusterMass float64
		for _, di := range docs {
			clusterMass += inst.Catalog.Docs[di].Popularity
		}
		if clusterMass <= 0 {
			continue
		}
		budget := len(docs) * cfg.NReps
		for _, di := range docs {
			d := &inst.Catalog.Docs[di]
			want := int(float64(budget) * d.Popularity / clusterMass)
			if want < 1 {
				want = 1
			}
			if want > len(nodes) {
				want = len(nodes)
			}
			for have := p.Replicas[di]; have < want; have++ {
				best := model.NodeID(-1)
				for _, k := range nodes {
					if has[k][di] || p.StoredBytes[k]+d.Size > inst.Nodes[k].StorageCap {
						continue
					}
					if best == -1 || p.StoredPopularity[k] < p.StoredPopularity[best] {
						best = k
					}
				}
				if best == -1 {
					p.CapacityDrops++
					break
				}
				store(best, di)
			}
		}
	}
	return p, nil
}

// PlaceCategory re-runs the placement policy for ONE category against an
// explicit member list — the receiving-cluster side of a live category
// move (§6.1.2 lazy rebalancing). Every member of the destination
// cluster can compute the identical map independently (the inputs are
// all part of the shared deterministic model) and store its own share,
// so the move needs no placement coordinator. Unlike Place it does not
// consult storage capacities: the members' current occupancy is not
// globally known, and one category is a small slice of a cluster's
// corpus.
func PlaceCategory(inst *model.Instance, cat catalog.CategoryID, members []model.NodeID, cfg Config) map[model.NodeID][]catalog.DocID {
	if err := cfg.Validate(); err != nil {
		cfg = DefaultConfig()
	}
	out := make(map[model.NodeID][]catalog.DocID)
	if len(members) == 0 {
		return out
	}
	ms := append([]model.NodeID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })

	var docs []catalog.DocID
	var mass float64
	for di := range inst.Catalog.Docs {
		d := &inst.Catalog.Docs[di]
		if len(d.Categories) > 0 && d.Categories[0] == cat {
			docs = append(docs, catalog.DocID(di))
			mass += d.Popularity
		}
	}
	sort.SliceStable(docs, func(i, j int) bool {
		return inst.Catalog.Docs[docs[i]].Popularity > inst.Catalog.Docs[docs[j]].Popularity
	})

	load := make(map[model.NodeID]float64, len(ms))
	give := func(k model.NodeID, di catalog.DocID) {
		out[k] = append(out[k], di)
		load[k] += inst.Catalog.Docs[di].Popularity
	}

	// Hot prefix to every member, like Place's step 2.
	var cum float64
	hotCut := 0
	for hotCut < len(docs) && cum < cfg.HotMass*mass {
		cum += inst.Catalog.Docs[docs[hotCut]].Popularity
		hotCut++
	}
	for _, di := range docs[:hotCut] {
		for _, k := range ms {
			give(k, di)
		}
	}
	// Cold documents: NReps copies each, dealt to the member with the
	// least popularity accumulated within this placement (ties to the
	// lowest id via the sorted scan order).
	for _, di := range docs[hotCut:] {
		reps := cfg.NReps
		if reps > len(ms) {
			reps = len(ms)
		}
		taken := make(map[model.NodeID]bool, reps)
		for r := 0; r < reps; r++ {
			best := model.NodeID(-1)
			for _, k := range ms {
				if taken[k] {
					continue
				}
				if best == -1 || load[k] < load[best] {
					best = k
				}
			}
			taken[best] = true
			give(best, di)
		}
	}
	return out
}

// IntraClusterFairness returns, per cluster, Jain's index over the stored
// popularity of its member nodes — the quantity the random-target query
// policy needs near 1 for intra-cluster load balance (§4.3.3).
func (p *Placement) IntraClusterFairness(mem *model.Membership) []float64 {
	out := make([]float64, len(mem.ClusterNodes))
	for c, nodes := range mem.ClusterNodes {
		xs := make([]float64, len(nodes))
		for i, k := range nodes {
			xs[i] = p.StoredPopularity[k]
		}
		out[c] = fairness.Jain(xs)
	}
	return out
}

// MaxStoredBytes returns the largest per-node storage footprint.
func (p *Placement) MaxStoredBytes() int64 {
	var max int64
	for _, b := range p.StoredBytes {
		if b > max {
			max = b
		}
	}
	return max
}

// MinReplicas returns the smallest replica count over documents that exist
// in a cluster with at least one member node; isolated documents are
// skipped because no policy can place them.
func (p *Placement) MinReplicas() int {
	min := -1
	for _, r := range p.Replicas {
		if r == 0 {
			continue
		}
		if min == -1 || r < min {
			min = r
		}
	}
	if min == -1 {
		return 0
	}
	return min
}
