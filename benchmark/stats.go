package main

import (
	"sort"
	"time"

	"p2pshare/internal/fairness"
	"p2pshare/internal/model"
)

// percentile returns the p-quantile (0..1) of sorted by nearest rank, 0
// when empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// rateWindows is how many equal-count windows a client's measured phase
// is cut into for the sustained rate.
const rateWindows = 20

// windowedRate is one client's sustained rate in ops/s: the phase is cut
// into rateWindows windows of equal op count and the median window rate
// is reported, so a rare multi-second stall or a neighbour's burst lands
// in a minority of windows instead of deciding the number. ends[i] is
// when op i completed, start when the first began; failed ops take time
// but do not count as work done.
func windowedRate(start time.Time, ends []time.Time, failed []bool) float64 {
	n := len(ends)
	if n == 0 {
		return 0
	}
	windows := rateWindows
	if n < windows {
		windows = n
	}
	rates := make([]float64, 0, windows)
	from, t0 := 0, start
	for w := 1; w <= windows; w++ {
		to := w * n / windows
		ok := 0
		for i := from; i < to; i++ {
			if !failed[i] {
				ok++
			}
		}
		t1 := ends[to-1]
		if d := t1.Sub(t0).Seconds(); d > 0 {
			rates = append(rates, float64(ok)/d)
		}
		from, t0 = to, t1
	}
	return medianFloat(rates)
}

// clusterJain is the paper's §4.2 fairness index over clusters of
// (work served by the cluster's nodes ÷ the cluster's processing units).
// A node that belongs to several clusters splits both its work and its
// units evenly between them, so totals are conserved.
func clusterJain(work []float64, inst *model.Instance, mem *model.Membership) float64 {
	load := make([]float64, inst.NumClusters)
	units := make([]float64, inst.NumClusters)
	for k := range inst.Nodes {
		cls := mem.ClustersOf(model.NodeID(k))
		for _, c := range cls {
			load[c] += work[k] / float64(len(cls))
			units[c] += inst.Nodes[k].Units / float64(len(cls))
		}
	}
	norm := make([]float64, 0, len(load))
	for c := range load {
		if units[c] > 0 {
			norm = append(norm, load[c]/units[c])
		}
	}
	return fairness.Jain(norm)
}

// nodeJain is the same index over single nodes (work ÷ units).
func nodeJain(work []float64, inst *model.Instance) float64 {
	norm := make([]float64, len(work))
	for k := range work {
		norm[k] = work[k] / inst.Nodes[k].Units
	}
	return fairness.Jain(norm)
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(xs, n=4) (exclusive method) computes them — the
// definition the accepting driver uses for spreads.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
