package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"

	"p2pshare/internal/model"
)

type opKind uint8

const (
	opQuery opKind = iota
	opPublish
	opFetch
	numKinds
)

var kindNames = [numKinds]string{"query", "publish", "fetch"}

// op is one pre-generated request. target is a category id for a query
// and a document id for a publish or a fetch.
type op struct {
	kind   opKind
	origin int32 // index into schedule.pool
	target int32
}

// schedule is everything the cluster is asked to do, fixed before it
// boots: the requester pool and one op list per client for the warm-up
// and for the measured phase.
type schedule struct {
	pool     []model.NodeID
	warm     [][]op
	measured [][]op
	hash     string // SHA-256 over pool and both phases
}

// buildSchedule derives the schedule. WHAT is asked is the same for
// every seed: the origin pool, and the multiset of (origin, kind, target)
// requests — kinds by exact quota, targets by exact Zipf quota over ranks
// (rank r is the r-th non-empty category, or document r), origins dealt
// round-robin. The seed decides the ORDER each client issues its requests
// in. Per-op cost, bytes on the wire and per-cluster load are then
// comparable between seeds to within the effect of ordering (cache
// contents), while no two seeds replay the same sequence.
func buildSchedule(w *workload, inst *model.Instance, assign []model.ClusterID, mem *model.Membership, seed int64, nOps, nWarm int) *schedule {
	s := &schedule{pool: pickOrigins(w, inst, mem)}
	rng := rand.New(rand.NewSource(seed))
	s.warm = touchOps(w, inst, assign, s.pool)
	for c, ops := range dealOps(w, inst, s.pool, rng, nWarm) {
		s.warm[c] = append(s.warm[c], ops...)
	}
	s.measured = dealOps(w, inst, s.pool, rng, nOps)

	h := sha256.New()
	var buf [9]byte
	for _, id := range s.pool {
		binary.LittleEndian.PutUint32(buf[:4], uint32(id))
		h.Write(buf[:4])
	}
	for _, phase := range [][][]op{s.warm, s.measured} {
		for c, ops := range phase {
			for _, o := range ops {
				buf[0] = byte(c)<<4 | byte(o.kind)
				binary.LittleEndian.PutUint32(buf[1:5], uint32(o.origin))
				binary.LittleEndian.PutUint32(buf[5:9], uint32(o.target))
				h.Write(buf[:])
			}
		}
	}
	s.hash = hex.EncodeToString(h.Sum(nil))
	return s
}

// pickOrigins draws the requester pool from the deployment seed: the
// same number from every cluster (by a node's first cluster), so the
// share of requests that start inside their serving cluster is that of a
// uniform population. Only nodes that contributed a document qualify — a
// publish needs one. The pool is part of the frozen workload: which 16 of
// 1 000 nodes ask decides flood widths, and with them every per-op
// metric, by several percent.
func pickOrigins(w *workload, inst *model.Instance, mem *model.Membership) []model.NodeID {
	rng := rand.New(rand.NewSource(shapeSeed))
	byCluster := make([][]model.NodeID, inst.NumClusters)
	for k := range inst.Nodes {
		cls := mem.ClustersOf(model.NodeID(k))
		if len(cls) == 0 || len(inst.Nodes[k].Contributed) == 0 {
			continue
		}
		byCluster[cls[0]] = append(byCluster[cls[0]], model.NodeID(k))
	}
	for _, nodes := range byCluster {
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	}
	pool := make([]model.NodeID, 0, w.origins)
	for round := 0; len(pool) < w.origins; round++ {
		added := false
		for c := 0; c < len(byCluster) && len(pool) < w.origins; c++ {
			if round < len(byCluster[c]) {
				pool = append(pool, byCluster[c][round])
				added = true
			}
		}
		if !added {
			break // fewer eligible nodes than requested origins
		}
	}
	return pool
}

// touchPerCluster is how many single-result queries each origin sends
// into each cluster before the warm-up proper. An origin picks its entry
// contact uniformly among a handful per cluster; 48 draws leave one of 3
// contacts cold with probability (2/3)^48.
const touchPerCluster = 48

// touchOps opens the warm-up: every origin queries every cluster
// touchPerCluster times (through the cluster's first non-empty category),
// so each origin→contact link is dialled before anything is timed. Links
// further in — forwarding neighbours, holders answering an origin — are
// dialled by the warm-up ops that follow.
func touchOps(w *workload, inst *model.Instance, assign []model.ClusterID, pool []model.NodeID) [][]op {
	first := make([]int32, inst.NumClusters)
	for cl := range first {
		first[cl] = -1
	}
	for cat, cl := range assign {
		if cl != model.NoCluster && first[cl] < 0 && len(inst.Catalog.Cats[cat].Docs) > 0 {
			first[cl] = int32(cat)
		}
	}
	clients := make([][]op, w.clients)
	for i := range pool {
		for _, cat := range first {
			for k := 0; k < touchPerCluster && cat >= 0; k++ {
				clients[i%w.clients] = append(clients[i%w.clients], op{kind: opQuery, origin: int32(i), target: cat})
			}
		}
	}
	return clients
}

// dealOps builds n ops of the workload's mix, deals them to the origins
// round-robin in (kind, rank) order — so every origin asks for every
// popular target equally often — and hands client c the ops of origins
// c, c+clients, …, shuffled by rng. Every origin node thus sees one
// caller and a fixed share of the load.
func dealOps(w *workload, inst *model.Instance, pool []model.NodeID, rng *rand.Rand, n int) [][]op {
	nPublish := n * w.publishPct / 100
	nFetch := n * w.fetchPct / 100
	nQuery := n - nPublish - nFetch
	// A category the generator gave no document can only time out.
	var cats []int32
	for _, c := range inst.Catalog.Cats {
		if len(c.Docs) > 0 {
			cats = append(cats, int32(c.ID))
		}
	}
	clients := make([][]op, w.clients)
	dealt := 0
	deal := func(k opKind, target int32) {
		o := op{kind: k, origin: int32(dealt % len(pool)), target: target}
		if k == opPublish {
			// Re-announce a document the origin already holds: the
			// publish path runs in full, the stored set does not grow.
			own := inst.Nodes[pool[o.origin]].Contributed
			o.target = int32(own[dealt/len(pool)%len(own)])
		}
		c := int(o.origin) % w.clients
		clients[c] = append(clients[c], o)
		dealt++
	}
	for rank, k := range zipfQuota(nQuery, len(cats), w.zipfS) {
		for i := 0; i < k; i++ {
			deal(opQuery, cats[rank])
		}
	}
	for rank, k := range zipfQuota(nFetch, len(inst.Catalog.Docs), w.zipfS) {
		for i := 0; i < k; i++ {
			deal(opFetch, int32(rank))
		}
	}
	for i := 0; i < nPublish; i++ {
		deal(opPublish, 0)
	}
	for _, ops := range clients {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	return clients
}

// zipfQuota splits n draws over ranks 0..ranks-1 in proportion to
// 1/(rank+1)^s by largest remainder, so the counts are exact and sum to
// n instead of being one random sample of the distribution.
func zipfQuota(n, ranks int, s float64) []int {
	if n == 0 || ranks == 0 {
		return nil
	}
	weights := make([]float64, ranks)
	var total float64
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), s)
		total += weights[r]
	}
	counts := make([]int, ranks)
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, ranks)
	given := 0
	for r, wgt := range weights {
		exact := float64(n) * wgt / total
		counts[r] = int(exact)
		given += counts[r]
		rems[r] = rem{r, exact - float64(counts[r])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < n-given; i++ {
		counts[rems[i%ranks].rank]++
	}
	return counts
}
