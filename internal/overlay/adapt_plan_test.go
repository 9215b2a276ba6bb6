package overlay

import (
	"math"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// TestEvaluateHitsWithoutUnits: a cluster that took hits but reported no
// capacity used to measure as +Inf, so the report's fairness was NaN and
// the low-threshold comparison was false by accident.
func TestEvaluateHitsWithoutUnits(t *testing.T) {
	sys, inst, _ := buildSystem(t, 31)
	p := sys.peers[0]
	sys.epoch = 1
	sys.adaptReport = &AdaptationReport{Epoch: 1}
	p.leaderLoads = make(map[model.ClusterID]*protocol.ClusterLoad)
	for c := 0; c < inst.NumClusters; c++ {
		cat := catalog.CategoryID(c)
		load := &protocol.ClusterLoad{Epoch: 1}
		load.Add(map[catalog.CategoryID]int64{cat: 10}, map[catalog.CategoryID]float64{cat: 1})
		p.leaderLoads[model.ClusterID(c)] = load
	}
	p.leaderLoads[2].Units = nil
	if err := p.evaluateAndRebalance(); err != nil {
		t.Fatal(err)
	}
	f := sys.adaptReport.MeasuredFairness
	if math.IsNaN(f) || f <= 0 || f >= 1 {
		t.Errorf("MeasuredFairness = %v, want finite in (0,1)", f)
	}
	if math.IsNaN(sys.adaptReport.FairnessAfter) {
		t.Error("FairnessAfter is NaN")
	}
}

// TestEvaluateBadMeasurementIsAnError: measurements the ICLB state cannot
// be built from used to panic the simulator; RunAdaptation now returns
// the error.
func TestEvaluateBadMeasurementIsAnError(t *testing.T) {
	sys, inst, _ := buildSystem(t, 32)
	p := sys.peers[0]
	sys.epoch = 1
	sys.adaptReport = &AdaptationReport{Epoch: 1}
	p.leaderLoads = make(map[model.ClusterID]*protocol.ClusterLoad)
	for c := 0; c < inst.NumClusters; c++ {
		cat := catalog.CategoryID(c)
		load := &protocol.ClusterLoad{Epoch: 1}
		load.Add(map[catalog.CategoryID]int64{cat: int64(1 + 100*c)}, map[catalog.CategoryID]float64{cat: 1})
		p.leaderLoads[model.ClusterID(c)] = load
	}
	p.leaderLoads[0].Hits[catalog.CategoryID(len(inst.Catalog.Cats))] = 7
	if err := p.evaluateAndRebalance(); err == nil {
		t.Error("out-of-catalog category accepted")
	}
}
