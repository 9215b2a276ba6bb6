package experiments

import (
	"p2pshare/internal/cache"
	"p2pshare/internal/metrics"
	"p2pshare/internal/model"
	"p2pshare/internal/overlay"
	"p2pshare/internal/workload"
)

// CacheRow is one cache-size cell of the §7(viii) extension study.
type CacheRow struct {
	Policy cache.Policy
	// CacheMB is the per-peer cache budget (0 = caching off).
	CacheMB int64
	// HitRatio aggregates cache hits across all peers.
	HitRatio float64
	// MeanHops over completed queries (cache answers count as 0 hops).
	MeanHops float64
	// MeanResponseMs over completed queries (cache answers are instant).
	MeanResponseMs float64
	// NetworkQueries is the number of queries that actually left the
	// origin.
	NetworkQueries int
}

// CacheEffect quantifies the §7(viii) future-work item implemented as an
// extension: per-peer LRU/LFU result caches under a Zipf workload. The
// expected shape: hit ratio grows with cache size; mean hops and response
// time fall; network traffic shrinks.
func CacheEffect(scale Scale, queries int, seed int64) ([]CacheRow, error) {
	if queries <= 0 {
		queries = 3000
	}
	cfg := overlayScale(scale)
	cells := []struct {
		policy cache.Policy
		mb     int64
	}{
		{cache.LRU, 0},
		{cache.LRU, 64},
		{cache.LRU, 256},
		{cache.LRU, 1024},
		{cache.LFU, 256},
	}
	out := make([]CacheRow, 0, len(cells))
	for _, cell := range cells {
		row, err := runCacheCell(cfg, cell.policy, cell.mb, queries, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, *row)
	}
	return out, nil
}

func runCacheCell(cfg model.Config, policy cache.Policy, mb int64, queries int, seed int64) (*CacheRow, error) {
	ocfg := overlay.DefaultConfig()
	ocfg.CacheBytes = mb << 20
	ocfg.CachePolicy = policy
	sys, d, err := buildOverlay(cfg, seed, ocfg)
	if err != nil {
		return nil, err
	}
	// A repeat-heavy workload: a modest set of active clients issuing
	// popularity-sampled queries — exactly where per-client caches pay.
	gen, err := workload.NewGenerator(d.Inst, 1, seed+7)
	if err != nil {
		return nil, err
	}
	clients := sys.NumPeers() / 20
	if clients < 1 {
		clients = 1
	}
	type issued struct {
		origin model.NodeID
		id     uint64
	}
	all := make([]issued, 0, queries)
	// Issue in waves with the network draining in between: caches only
	// help queries issued after earlier results arrived.
	for i := 0; i < queries; i++ {
		q := gen.Next()
		origin := model.NodeID(int(q.Origin) % clients)
		all = append(all, issued{origin, sys.IssueQuery(origin, q.Category, 1)})
		if i%clients == clients-1 {
			if err := sys.Run(); err != nil {
				return nil, err
			}
		}
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	var hops, resp metrics.Histogram
	for _, q := range all {
		if rep, ok := sys.QueryReport(q.origin, q.id); ok && rep.Done {
			hops.Observe(float64(rep.Hops))
			resp.ObserveDuration(rep.ResponseTime)
		}
	}
	return &CacheRow{
		Policy:         policy,
		CacheMB:        mb,
		HitRatio:       sys.CacheHitRatio(),
		MeanHops:       hops.Mean(),
		MeanResponseMs: resp.Mean(),
		NetworkQueries: sys.Net().Stats().MessagesByKind["query"],
	}, nil
}
