package experiments

import (
	"p2pshare/internal/fairness"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/overlay"
	"p2pshare/internal/workload"
)

// ModeRow compares one intra-cluster content-location design (§3.1).
type ModeRow struct {
	Mode overlay.Mode
	// MeanHops and P95Hops over completed queries.
	MeanHops, P95Hops float64
	// QueryMessages is the total in-cluster search traffic (query +
	// index-query + direct-serve messages).
	QueryMessages int
	// Completed is the fraction of queries that gathered m results.
	Completed float64
	// ServedFairness is Jain's index over per-node served counts — how
	// evenly the design spreads the serving work. Super peers
	// concentrate lookups by construction; this quantifies the §3.1
	// trade-off.
	ServedFairness float64
	// TopServedShare is the busiest node's share of all served requests.
	TopServedShare float64
}

// ModeComparison runs the same workload under each intra-cluster design
// and reports hops, traffic, and load concentration — the quantified form
// of the paper's §3.1 pure-P2P vs super-peer discussion.
func ModeComparison(scale Scale, queries int, seed int64) ([]ModeRow, error) {
	if queries <= 0 {
		queries = 1200
	}
	cfg := overlayScale(scale)
	var out []ModeRow
	for _, mode := range []overlay.Mode{overlay.ModeFlood, overlay.ModeSuperPeer, overlay.ModeRoutingIndex} {
		row, err := runMode(cfg, mode, queries, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, *row)
	}
	return out, nil
}

func runMode(cfg model.Config, mode overlay.Mode, queries int, seed int64) (*ModeRow, error) {
	ocfg := overlay.DefaultConfig()
	ocfg.Mode = mode
	sys, d, err := buildOverlay(cfg, seed, ocfg)
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
		all = append(all, issued{q.Origin, sys.IssueQuery(q.Origin, q.Category, q.M)})
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	var hops metrics.Histogram
	done := 0
	for _, q := range all {
		if rep, ok := sys.QueryReport(q.origin, q.id); ok && rep.Done {
			done++
			hops.Observe(float64(rep.Hops))
		}
	}
	stats := sys.Net().Stats()
	served := sys.ServedLoads()
	var total, top float64
	for _, s := range served {
		total += s
		if s > top {
			top = s
		}
	}
	row := &ModeRow{
		Mode:      mode,
		MeanHops:  hops.Mean(),
		P95Hops:   hops.Quantile(0.95),
		Completed: float64(done) / float64(queries),
		QueryMessages: stats.MessagesByKind["query"] +
			stats.MessagesByKind["index-query"] +
			stats.MessagesByKind["direct-serve"],
		ServedFairness: fairness.Jain(served),
	}
	if total > 0 {
		row.TopServedShare = top / total
	}
	return row, nil
}
