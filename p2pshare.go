// Package p2pshare is a complete implementation of the peer-to-peer
// content and resource sharing architecture of Triantafillou, Xiruhaki,
// Koubarakis and Ntarmos, "Towards High Performance Peer-to-Peer Content
// and Resource Sharing Systems" (CIDR 2003).
//
// The architecture imposes a logical structure on the P2P network:
// documents are grouped into semantic categories, peers are clustered by
// the categories they contribute, and categories are assigned to clusters
// by the greedy MaxFair algorithm, which maximizes Jain's fairness index
// over normalized cluster popularities. Queries resolve keywords to a
// category, route to the serving cluster in one hop, and flood only
// within the cluster, giving constant-hop common-case response times and
// a cluster-size worst-case bound. A four-phase adaptation mechanism
// (monitoring, leader communication, fairness evaluation, lazy
// rebalancing) keeps the load fair as popularity, content, and peer
// populations drift.
//
// This package is the high-level facade: it assembles a synthetic peer
// community, balances it, places replicas, and runs the live overlay on a
// deterministic discrete-event simulator. The building blocks live in
// internal/ (core, overlay, replica, simnet, ...); the experiments
// regenerating every figure and table of the paper live in
// internal/experiments and are driven by cmd/experiments.
package p2pshare

import (
	"fmt"
	"math/rand"

	"p2pshare/internal/catalog"
	"p2pshare/internal/classify"
	"p2pshare/internal/core"
	"p2pshare/internal/fairness"
	"p2pshare/internal/model"
	"p2pshare/internal/overlay"
	"p2pshare/internal/query"
	"p2pshare/internal/replica"
	"p2pshare/internal/workload"
)

// Re-exported identifier types.
type (
	// NodeID identifies a peer node.
	NodeID = model.NodeID
	// ClusterID identifies a peer cluster.
	ClusterID = model.ClusterID
	// DocID identifies a document.
	DocID = catalog.DocID
	// CategoryID identifies a document category.
	CategoryID = catalog.CategoryID
	// Mode selects the intra-cluster content-location design (§3.1).
	Mode = overlay.Mode
)

// Intra-cluster design modes (§3.1).
const (
	// ModeFlood floods queries within the serving cluster (the §3.3
	// default).
	ModeFlood = overlay.ModeFlood
	// ModeSuperPeer routes queries through per-cluster metadata holders.
	ModeSuperPeer = overlay.ModeSuperPeer
	// ModeRoutingIndex forwards queries along per-neighbor reachability
	// counts instead of flooding.
	ModeRoutingIndex = overlay.ModeRoutingIndex
)

// Config assembles a synthetic sharing community. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Documents, Categories, Nodes, Clusters size the community. The
	// paper's full-scale evaluation uses 200 000 documents, 500
	// categories, 20 000 nodes, and 100 clusters.
	Documents  int
	Categories int
	Nodes      int
	Clusters   int
	// ThetaDocs is the Zipf skew of document popularity (paper: 0.8).
	ThetaDocs float64
	// ThetaCats is the Zipf skew used when assigning documents to
	// categories (paper: 0.7); set UniformCategories to ignore it.
	ThetaCats float64
	// UniformCategories assigns documents to categories uniformly (the
	// paper's second scenario) instead of by Zipf sampling.
	UniformCategories bool
	// Replication configures the intra-cluster replica placement
	// (§4.3.3): NReps copies per document, the top HotMass of each
	// cluster's popularity replicated everywhere.
	Replication replica.Config
	// Mode selects the intra-cluster content-location design (§3.1);
	// the zero value is ModeFlood.
	Mode Mode
	// Seed makes the whole community and simulation reproducible.
	Seed int64
}

// DefaultConfig returns a laptop-scale community with the paper's shape.
func DefaultConfig() Config {
	return Config{
		Documents:   20000,
		Categories:  500,
		Nodes:       2000,
		Clusters:    100,
		ThetaDocs:   0.8,
		ThetaCats:   0.7,
		Replication: replica.DefaultConfig(),
		Seed:        1,
	}
}

// QueryResult reports one query's outcome. It is the unified result type
// shared with the live TCP engine (internal/livenet returns the same
// struct from Node.QueryContext), so code driving both the simulator and
// a live deployment handles one shape.
type QueryResult = query.Result

// Sentinel errors shared across the facade and the live engine
// (internal/livenet aliases the same values); match them with errors.Is.
var (
	// ErrNoRoute reports a category that cannot be routed to any serving
	// cluster member.
	ErrNoRoute = query.ErrNoRoute
	// ErrTimeout reports a query that did not complete before its
	// deadline; the partial outcome accompanies it.
	ErrTimeout = query.ErrTimeout
	// ErrClosed reports an API call on a node or system that has shut
	// down.
	ErrClosed = query.ErrClosed
	// ErrOverloaded reports a query rejected by a node's admission
	// control (too many in-flight queries).
	ErrOverloaded = query.ErrOverloaded
)

// Balance describes the current load-balance state of the community.
type Balance struct {
	// Fairness is Jain's index over normalized cluster popularities
	// (1 = perfectly fair; the paper reports > 0.95 from MaxFair).
	Fairness float64
	// NormalizedPopularities is indexed by cluster.
	NormalizedPopularities []float64
}

// System is a running sharing community.
type System struct {
	cfg      Config
	inst     *model.Instance
	state    *core.State
	overlay  *overlay.System
	classif  *classify.Classifier
	gen      *workload.Generator
	rng      *rand.Rand
	reshaped bool
}

// New generates a synthetic community from cfg, balances it with MaxFair,
// places replicas, and boots the overlay.
func New(cfg Config) (*System, error) {
	mcfg := model.DefaultConfig()
	mcfg.Catalog.NumDocs = cfg.Documents
	mcfg.Catalog.NumCats = cfg.Categories
	mcfg.Catalog.ThetaDocs = cfg.ThetaDocs
	mcfg.Catalog.ThetaCats = cfg.ThetaCats
	if cfg.UniformCategories {
		mcfg.Catalog.CatAssign = catalog.AssignUniform
	}
	mcfg.NumNodes = cfg.Nodes
	mcfg.NumClusters = cfg.Clusters
	mcfg.Seed = cfg.Seed

	d, err := replica.Deploy(mcfg, cfg.Replication)
	if err != nil {
		return nil, fmt.Errorf("p2pshare: %w", err)
	}
	ocfg := overlay.DefaultConfig()
	ocfg.Seed = cfg.Seed
	ocfg.Mode = cfg.Mode
	sys, err := overlay.NewSystem(d.Inst, d.Assign, d.Place, ocfg)
	if err != nil {
		return nil, fmt.Errorf("p2pshare: overlay: %w", err)
	}
	gen, err := workload.NewGenerator(d.Inst, 3, cfg.Seed+7)
	if err != nil {
		return nil, fmt.Errorf("p2pshare: workload: %w", err)
	}
	return &System{
		cfg:     cfg,
		inst:    d.Inst,
		state:   d.MaxFair.State,
		overlay: sys,
		classif: classify.New(d.Inst.Catalog),
		gen:     gen,
		rng:     rand.New(rand.NewSource(cfg.Seed + 1000)),
	}, nil
}

// NumNodes returns the peer count (including nodes added at runtime).
func (s *System) NumNodes() int { return s.overlay.NumPeers() }

// NumCategories returns the category count.
func (s *System) NumCategories() int { return s.inst.CatCount() }

// NumDocuments returns the document count.
func (s *System) NumDocuments() int { return s.inst.DocCount() }

// CategoryKeywords returns the keyword vocabulary of a category, usable as
// query keywords.
func (s *System) CategoryKeywords(c CategoryID) []string {
	cat := s.inst.Catalog.Cat(c)
	if cat == nil {
		return nil
	}
	return append([]string(nil), cat.Keywords...)
}

// Query submits a keyword query from the origin node asking for m results
// (the §3.3 protocol: keywords → category → cluster → random node →
// in-cluster search) and runs the network until quiescent.
func (s *System) Query(origin NodeID, keywords []string, m int) (QueryResult, error) {
	if int(origin) >= s.overlay.NumPeers() {
		return QueryResult{}, fmt.Errorf("p2pshare: unknown node %d", origin)
	}
	id, err := s.overlay.IssueQueryKeywords(origin, s.classif.Best, keywords, m)
	if err != nil {
		return QueryResult{}, err
	}
	if err := s.overlay.Run(); err != nil {
		return QueryResult{}, err
	}
	rep, ok := s.overlay.QueryReport(origin, id)
	if !ok {
		return QueryResult{}, fmt.Errorf("p2pshare: lost query %d", id)
	}
	return QueryResult{
		Done:         rep.Done,
		Results:      rep.Results,
		Hops:         rep.Hops,
		ResponseTime: rep.ResponseTime,
	}, nil
}

// QueryCategory is Query with a resolved category (skips classification).
func (s *System) QueryCategory(origin NodeID, cat CategoryID, m int) (QueryResult, error) {
	if s.inst.Catalog.Cat(cat) == nil {
		return QueryResult{}, fmt.Errorf("p2pshare: unknown category %d", cat)
	}
	if int(origin) >= s.overlay.NumPeers() {
		return QueryResult{}, fmt.Errorf("p2pshare: unknown node %d", origin)
	}
	id := s.overlay.IssueQuery(origin, cat, m)
	if err := s.overlay.Run(); err != nil {
		return QueryResult{}, err
	}
	rep, ok := s.overlay.QueryReport(origin, id)
	if !ok {
		return QueryResult{}, fmt.Errorf("p2pshare: lost query %d", id)
	}
	return QueryResult{
		Done:         rep.Done,
		Results:      rep.Results,
		Hops:         rep.Hops,
		ResponseTime: rep.ResponseTime,
	}, nil
}

// RunWorkload issues n popularity-faithful queries from random origins and
// returns the completion rate.
func (s *System) RunWorkload(n int) (completed float64, err error) {
	type issued struct {
		origin NodeID
		id     uint64
	}
	all := make([]issued, 0, n)
	for i := 0; i < n; i++ {
		q := s.gen.Next()
		all = append(all, issued{q.Origin, s.overlay.IssueQuery(q.Origin, q.Category, q.M)})
	}
	if err := s.overlay.Run(); err != nil {
		return 0, err
	}
	done := 0
	for _, q := range all {
		if rep, ok := s.overlay.QueryReport(q.origin, q.id); ok && rep.Done {
			done++
		}
	}
	if n == 0 {
		return 1, nil
	}
	return float64(done) / float64(n), nil
}

// PublishNew creates a brand-new document with the given popularity share
// (carved out of the existing mass), contributed and published by node n.
// It returns the new document's id.
func (s *System) PublishNew(n NodeID, popularityShare float64) (DocID, error) {
	ids, err := s.inst.Catalog.AddDocuments(1, popularityShare, 0.8, s.rng)
	if err != nil {
		return 0, err
	}
	if err := s.inst.AttachDocument(ids[0], n); err != nil {
		return 0, err
	}
	if err := s.overlay.Publish(n, ids[0]); err != nil {
		return 0, err
	}
	if err := s.overlay.Run(); err != nil {
		return 0, err
	}
	s.reshaped = true
	return ids[0], nil
}

// Join adds a fresh node with the given compute units to the community,
// bootstrapping through an existing member (the §6.3 join protocol). The
// node joins as a free rider; use PublishNew afterwards to contribute.
func (s *System) Join(units float64, bootstrap NodeID) (NodeID, error) {
	id := s.overlay.AddNode(units, 1<<40)
	if err := s.overlay.Join(id, bootstrap); err != nil {
		return 0, err
	}
	if err := s.overlay.Run(); err != nil {
		return 0, err
	}
	return id, nil
}

// Leave removes a node (the §6.3 departure path: cluster mates are
// notified and orphaned documents are adopted).
func (s *System) Leave(n NodeID) error {
	if int(n) >= s.overlay.NumPeers() {
		return fmt.Errorf("p2pshare: unknown node %d", n)
	}
	s.overlay.Leave(n)
	return s.overlay.Run()
}

// ShiftPopularity re-randomizes document popularity ranks (content
// popularity drift, §6.1) and refreshes the workload generator.
func (s *System) ShiftPopularity() error {
	s.inst.Catalog.ShiftPopularity(s.cfg.ThetaDocs, s.rng)
	gen, err := workload.NewGenerator(s.inst, 3, s.cfg.Seed+7)
	if err != nil {
		return err
	}
	s.gen = gen
	s.reshaped = true
	return nil
}

// Adapt runs one full §6.1 adaptation round (leader election, monitoring,
// leader communication, fairness evaluation, rebalancing + lazy transfer)
// and returns its report.
func (s *System) Adapt() (*overlay.AdaptationReport, error) {
	return s.overlay.RunAdaptation(4)
}

// PlannedBalance returns the balance of the *planned* assignment: the
// MaxFair state evaluated against current category popularities. After
// catalog changes it rebuilds the state first.
func (s *System) PlannedBalance() (Balance, error) {
	if s.reshaped {
		if err := s.state.Rebuild(s.inst); err != nil {
			return Balance{}, err
		}
		s.reshaped = false
	}
	return Balance{
		Fairness:               s.state.Fairness(),
		NormalizedPopularities: s.state.NormalizedPopularities(),
	}, nil
}

// MeasuredBalance returns the balance of *measured* load: per-cluster
// served requests normalized by live capacity.
func (s *System) MeasuredBalance() Balance {
	xs := s.overlay.MeasuredNormalizedLoads()
	return Balance{
		Fairness:               fairness.Jain(xs),
		NormalizedPopularities: xs,
	}
}

// ResetLoadCounters zeroes the per-node served-request counters.
func (s *System) ResetLoadCounters() { s.overlay.ResetHitCounters() }

// ServedLoads returns the per-node served-request counts.
func (s *System) ServedLoads() []float64 { return s.overlay.ServedLoads() }

// Overlay exposes the underlying overlay system for advanced scenarios
// (killing nodes, traffic statistics, direct protocol access).
func (s *System) Overlay() *overlay.System { return s.overlay }
