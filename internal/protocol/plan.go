package protocol

import (
	"fmt"

	"p2pshare/internal/core"
	"p2pshare/internal/fairness"
	"p2pshare/internal/model"
)

// Thresholds are the three §6.1.2 knobs of phases 3–4.
type Thresholds struct {
	// LowThreshold triggers rebalancing when the measured fairness index
	// falls below it.
	LowThreshold float64
	// TargetFairness is the reassignment's stopping criterion.
	TargetFairness float64
	// MaxMoves bounds category moves per epoch.
	MaxMoves int
}

// DefaultThresholds are the paper's example knobs (rebalance when
// fairness falls below 0.83, back up to 0.92), at most 16 moves an
// epoch.
var DefaultThresholds = Thresholds{LowThreshold: 0.83, TargetFairness: 0.92, MaxMoves: 16}

// Survey is phase 3's reading of the loads a leader holds for one epoch.
type Survey struct {
	// Heard lists, ascending, the clusters with a load for the epoch.
	// Unheard clusters are unknown, not empty: counting them as zero load
	// would both misstate fairness and attract every category in phase 4.
	Heard []model.ClusterID
	// Fairness is Jain's index over the heard clusters' normalized
	// popularities.
	Fairness float64
	// Hottest is the heard cluster with the highest normalized popularity,
	// ties to the lowest id; its leader is the paper's "chosen leader", a
	// choice every leader that heard the same loads agrees on. Meaningful
	// only when Heard is non-empty.
	Hottest model.ClusterID
}

// Measure surveys the loads of one epoch; loads of any other epoch are
// ignored.
func Measure(loads map[model.ClusterID]*ClusterLoad, epoch uint64) Survey {
	var s Survey
	for _, cl := range sortedKeys(loads) {
		if loads[cl].Epoch == epoch {
			s.Heard = append(s.Heard, cl)
		}
	}
	xs := make([]float64, len(s.Heard))
	hottest := 0
	for i, cl := range s.Heard {
		xs[i] = loads[cl].NormPop()
		if xs[i] > xs[hottest] {
			hottest = i
		}
	}
	s.Fairness = fairness.Jain(xs)
	if len(s.Heard) > 0 {
		s.Hottest = s.Heard[hottest]
	}
	return s
}

// Decision is the outcome of phases 3–4 at the chosen leader.
type Decision struct {
	Survey
	// Moves are the category reassignments to announce, in the order
	// MaxFair_Reassign applied them, between real (heard) cluster ids.
	// Empty when fairness is above the low threshold or the measurements
	// carry too little signal to act on.
	Moves []core.Move
	// FairnessAfter is the index the moves are expected to reach (equal to
	// Fairness when there are none).
	FairnessAfter float64
}

// Plan is phases 3 and 4 of §6.1.2: compute the fairness index over the
// measured normalized popularities; if it is below the low threshold,
// rebuild the ICLB state from the measurements — over the heard clusters,
// remapped to compact ids — run MaxFair_Reassign on it and map the moves
// back. It declines to move anything when fewer than half of the
// numClusters clusters were heard or no request was counted, and core has
// no improving move while a heard cluster took hits with no measured
// capacity (infinitely loaded in its state). The result is a function of
// the arguments alone: it does not depend on map iteration order.
func Plan(loads map[model.ClusterID]*ClusterLoad, epoch uint64, numClusters, numCats int, th Thresholds) (Decision, error) {
	d := Decision{Survey: Measure(loads, epoch)}
	d.FairnessAfter = d.Fairness
	var totalHits int64
	for _, cl := range d.Heard {
		totalHits += loads[cl].totalHits()
	}
	if d.Fairness >= th.LowThreshold || len(d.Heard) < (numClusters+1)/2 || totalHits == 0 {
		return d, nil
	}

	catPop := make([]float64, numCats)
	catUnits := make([]float64, numCats)
	assign := make([]model.ClusterID, numCats)
	for c := range assign {
		assign[c] = model.NoCluster
	}
	for i, cl := range d.Heard {
		load := loads[cl]
		for _, c := range append(sortedKeys(load.Hits), sortedKeys(load.Units)...) {
			if c < 0 || int(c) >= numCats {
				return d, fmt.Errorf("protocol: cluster %d reports category %d outside [0,%d)", cl, c, numCats)
			}
			assign[c] = model.ClusterID(i)
		}
		for c, h := range load.Hits {
			catPop[c] += float64(h) / float64(totalHits)
		}
		for c, u := range load.Units {
			catUnits[c] += u
		}
	}
	st, err := core.NewStateFromMeasurements(len(d.Heard), catPop, catUnits, assign)
	if err != nil {
		return d, err
	}
	moves, err := core.MaxFairReassign(st, core.ReassignOptions{TargetFairness: th.TargetFairness, MaxMoves: th.MaxMoves})
	if err != nil {
		return d, err
	}
	for i := range moves {
		moves[i].From, moves[i].To = d.Heard[moves[i].From], d.Heard[moves[i].To]
		d.FairnessAfter = moves[i].FairnessAfter
	}
	d.Moves = moves
	return d, nil
}
