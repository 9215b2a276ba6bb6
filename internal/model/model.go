// Package model describes the peer population and whole-system instances
// of the inter-cluster load-balancing problem (ICLB, paper §4).
//
// A node contributes documents, offers processing capacity measured in
// units relative to a reference machine (paper §4.3.1, u ∈ [1..5] in the
// experiments), and offers storage capacity. An Instance bundles a catalog,
// a node population, and a target cluster count — everything MaxFair needs.
package model

import (
	"fmt"
	"math/rand"

	"p2pshare/internal/catalog"
)

// NodeID identifies a peer node.
type NodeID int32

// ClusterID identifies a peer cluster.
type ClusterID int32

// NoCluster marks an unset cluster reference.
const NoCluster ClusterID = -1

// Node is one peer: a user's computer contributing content and resources.
type Node struct {
	ID NodeID
	// Units is the node's processing capacity relative to a reference
	// point (paper §4.3.1: clock speed, CPU benchmark, ...).
	Units float64
	// StorageCap is the node's storage capacity in bytes offered to the
	// community. Nodes always store at least what they contribute.
	StorageCap int64
	// Contributed lists the documents the node published.
	Contributed []catalog.DocID
}

// Instance is a complete ICLB problem instance.
type Instance struct {
	Catalog     *catalog.Catalog
	Nodes       []Node
	NumClusters int
	// Contributors maps each document to the node that contributed it.
	Contributors []NodeID
}

// The node population's fixed shape (the paper's §4.4 values).
const (
	// minUnits/maxUnits bound per-node processing units (paper: 1..5).
	minUnits, maxUnits = 1, 5
	// minDocsPerNode/maxDocsPerNode bound content contributions
	// (paper: 1..20 documents spanning various categories).
	minDocsPerNode, maxDocsPerNode = 1, 20
	// storageSlackFactor scales node storage capacity: capacity =
	// factor × (bytes contributed) + storageSlackBytes, leaving room for
	// replicas (§4.3.3).
	storageSlackFactor = 8
	// storageSlackBytes is a flat extra capacity per node.
	storageSlackBytes = 512 << 20
)

// Config controls synthetic instance generation. The zero value is not
// valid; use DefaultConfig or PaperConfig as a starting point.
type Config struct {
	Catalog catalog.Config
	// NumNodes is the contributing ("altruistic") peer population; free
	// riders are excluded per the paper (§4.4).
	NumNodes    int
	NumClusters int
	// Seed drives all generation randomness.
	Seed int64
}

// DefaultConfig is a laptop-friendly scaled-down configuration preserving
// the paper's shape (|D|:|N|:|S|:|C| ratios of the §4.4 experiments).
func DefaultConfig() Config {
	return Config{
		Catalog: catalog.Config{
			NumDocs:   20000,
			NumCats:   500,
			ThetaDocs: 0.8,
			ThetaCats: 0.7,
			CatAssign: catalog.AssignZipf,
		},
		NumNodes:    2000,
		NumClusters: 100,
		Seed:        1,
	}
}

// PaperConfig is the full-scale configuration of the paper's §4.4
// experiments: 200 000 documents, 20 000 nodes, 100 clusters, 500
// categories, units in [1..5], 1–20 documents per node.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Catalog.NumDocs = 200000
	c.NumNodes = 20000
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumNodes <= 0:
		return fmt.Errorf("model: NumNodes must be positive, got %d", c.NumNodes)
	case c.NumClusters <= 0:
		return fmt.Errorf("model: NumClusters must be positive, got %d", c.NumClusters)
	case c.Catalog.NumDocs < c.NumNodes*minDocsPerNode:
		return fmt.Errorf("model: %d documents cannot give %d nodes at least %d each",
			c.Catalog.NumDocs, c.NumNodes, minDocsPerNode)
	}
	return nil
}

// Generate builds a synthetic instance: a catalog per cfg.Catalog, and
// nodes with random units and contribution counts. Documents are dealt to
// nodes in random order; every document has exactly one contributor, and
// every node contributes between minDocsPerNode and maxDocsPerNode
// documents (except possibly the last nodes if documents run out, and
// extra documents are dealt round-robin if nodes run out).
func Generate(cfg Config) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat, err := catalog.Generate(cfg.Catalog, rng)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		Catalog:      cat,
		Nodes:        make([]Node, cfg.NumNodes),
		NumClusters:  cfg.NumClusters,
		Contributors: make([]NodeID, len(cat.Docs)),
	}
	for i := range inst.Contributors {
		inst.Contributors[i] = -1
	}
	for i := range inst.Nodes {
		inst.Nodes[i] = Node{
			ID:    NodeID(i),
			Units: float64(minUnits + rng.Intn(maxUnits-minUnits+1)),
		}
	}

	// Deal documents to nodes in a random order so contribution sets span
	// arbitrary categories and popularity ranks.
	perm := rng.Perm(len(cat.Docs))
	next := 0
	for i := range inst.Nodes {
		want := minDocsPerNode + rng.Intn(maxDocsPerNode-minDocsPerNode+1)
		// Reserve enough documents for the remaining nodes to each get
		// their minimum, so no node ends up a free rider.
		nodesAfter := len(inst.Nodes) - i - 1
		if maxAllowed := len(perm) - next - nodesAfter*minDocsPerNode; want > maxAllowed {
			want = maxAllowed
		}
		for j := 0; j < want && next < len(perm); j++ {
			di := catalog.DocID(perm[next])
			next++
			inst.Nodes[i].Contributed = append(inst.Nodes[i].Contributed, di)
			inst.Contributors[di] = inst.Nodes[i].ID
		}
	}
	// Any leftovers go round-robin so every document has a contributor.
	for i := 0; next < len(perm); i = (i + 1) % len(inst.Nodes) {
		di := catalog.DocID(perm[next])
		next++
		inst.Nodes[i].Contributed = append(inst.Nodes[i].Contributed, di)
		inst.Contributors[di] = inst.Nodes[i].ID
	}

	// Storage capacity: room for own contributions plus replica slack.
	for i := range inst.Nodes {
		var contributed int64
		for _, di := range inst.Nodes[i].Contributed {
			contributed += cat.Docs[di].Size
		}
		inst.Nodes[i].StorageCap = int64(float64(contributed)*storageSlackFactor) + storageSlackBytes
	}
	return inst, nil
}

// AttachDocument registers a newly published document (e.g. from
// catalog.AddDocuments) as contributed by node n, growing Contributors as
// needed. It returns an error if the node or document is unknown.
func (inst *Instance) AttachDocument(d catalog.DocID, n NodeID) error {
	if n < 0 || int(n) >= len(inst.Nodes) {
		return fmt.Errorf("model: unknown node %d", n)
	}
	if inst.Catalog.Doc(d) == nil {
		return fmt.Errorf("model: unknown document %d", d)
	}
	for int(d) >= len(inst.Contributors) {
		inst.Contributors = append(inst.Contributors, -1)
	}
	if inst.Contributors[d] != -1 {
		return fmt.Errorf("model: document %d already contributed by node %d", d, inst.Contributors[d])
	}
	inst.Contributors[d] = n
	inst.Nodes[n].Contributed = append(inst.Nodes[n].Contributed, d)
	return nil
}

// ContributedPopularity returns p(D(k)) for node k: the summed popularity
// of the documents it contributed (and therefore stores).
func (inst *Instance) ContributedPopularity(k NodeID) float64 {
	var sum float64
	for _, di := range inst.Nodes[k].Contributed {
		sum += inst.Catalog.Docs[di].Popularity
	}
	return sum
}

// NodeCount and DocCount are convenience accessors used by reports.
func (inst *Instance) NodeCount() int { return len(inst.Nodes) }

// DocCount returns the number of documents in the instance's catalog.
func (inst *Instance) DocCount() int { return len(inst.Catalog.Docs) }

// CatCount returns the number of categories in the instance's catalog.
func (inst *Instance) CatCount() int { return len(inst.Catalog.Cats) }
