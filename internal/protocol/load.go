package protocol

import (
	"slices"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// ClusterLoad is one cluster's measured load for one adaptation epoch:
// per-category request counts (§6.1.2 phase 1) and per-category unit mass
// (§4.3.3), summed over the members that reported.
type ClusterLoad struct {
	Epoch uint64
	Hits  map[catalog.CategoryID]int64
	Units map[catalog.CategoryID]float64
}

// Add folds one member's (or one subtree's) measurement into the load.
func (l *ClusterLoad) Add(hits map[catalog.CategoryID]int64, units map[catalog.CategoryID]float64) {
	if l.Hits == nil {
		l.Hits = make(map[catalog.CategoryID]int64, len(hits))
	}
	if l.Units == nil {
		l.Units = make(map[catalog.CategoryID]float64, len(units))
	}
	for c, h := range hits {
		l.Hits[c] += h
	}
	for c, u := range units {
		l.Units[c] += u
	}
}

// unmeasuredNormPop is the normalized popularity of a cluster that took
// hits but reported no serving capacity: effectively infinite — it sorts
// above every measured cluster — yet finite, so Jain's index over a set
// that contains it is a number below 1 rather than NaN.
const unmeasuredNormPop = 1e18

// totalHits is the cluster's request count over all categories.
func (l *ClusterLoad) totalHits() int64 {
	var hits int64
	for _, h := range l.Hits {
		hits += h
	}
	return hits
}

// NormPop is the cluster's measured normalized popularity: hits per unit
// of serving capacity, 0 for an idle cluster. Units are summed in category
// order so the value does not depend on map iteration.
func (l *ClusterLoad) NormPop() float64 {
	hits := l.totalHits()
	var units float64
	for _, c := range sortedKeys(l.Units) {
		units += l.Units[c]
	}
	if units == 0 {
		if hits == 0 {
			return 0
		}
		return unmeasuredNormPop
	}
	return float64(hits) / units
}

// UnitMass is one node's per-category unit mass u_k·p(D_s(k))/p(D(k))
// (§4.3.3) over the documents it stores, restricted to the categories its
// DCRT routes to cluster cl: the node's capacity units split across its
// categories in proportion to their stored popularity. Popularities are
// read from the catalog at call time because catalog perturbations
// re-scale them underneath every node.
func UnitMass(cat *catalog.Catalog, units float64, stored map[catalog.CategoryID][]catalog.DocID,
	dcrt *DCRT, cl model.ClusterID) map[catalog.CategoryID]float64 {
	cats := sortedKeys(stored)
	pop := make([]float64, len(cats))
	var total float64
	for i, c := range cats {
		for _, d := range stored[c] {
			pop[i] += cat.Doc(d).Popularity
		}
		total += pop[i]
	}
	out := make(map[catalog.CategoryID]float64)
	if total <= 0 {
		return out
	}
	for i, c := range cats {
		if e, _ := dcrt.Get(c); len(stored[c]) > 0 && e.Cluster == cl {
			out[c] = units * pop[i] / total
		}
	}
	return out
}

// MoreCapable is the §6.1.1 election order: node a outranks node b when it
// has more capacity units, ties to the lowest id — so every node that
// knows the same candidates elects the same leader.
func MoreCapable(a model.NodeID, unitsA float64, b model.NodeID, unitsB float64) bool {
	return unitsA > unitsB || (unitsA == unitsB && a < b)
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K ~int32, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
