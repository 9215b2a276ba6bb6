package protocol

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// defaults are the thresholds both drivers ship with (overlay.DefaultConfig
// and livenet.AdaptConfig's zero-value defaults carry the same three values).
var defaults = Thresholds{LowThreshold: 0.83, TargetFairness: 0.92, MaxMoves: 16}

// load builds one cluster's load from (category, hits, units) triples.
func load(epoch uint64, rows ...[3]float64) *ClusterLoad {
	l := &ClusterLoad{Epoch: epoch}
	for _, r := range rows {
		c := catalog.CategoryID(r[0])
		l.Add(map[catalog.CategoryID]int64{c: int64(r[1])}, map[catalog.CategoryID]float64{c: r[2]})
	}
	return l
}

// skewed is four clusters of three categories each, equal capacity, with
// cluster 0 taking almost all the traffic.
func skewed(epoch uint64) map[model.ClusterID]*ClusterLoad {
	return map[model.ClusterID]*ClusterLoad{
		0: load(epoch, [3]float64{0, 400, 1}, [3]float64{1, 300, 1}, [3]float64{2, 200, 1}),
		1: load(epoch, [3]float64{3, 10, 1}, [3]float64{4, 10, 1}, [3]float64{5, 10, 1}),
		2: load(epoch, [3]float64{6, 10, 1}, [3]float64{7, 10, 1}, [3]float64{8, 10, 1}),
		3: load(epoch, [3]float64{9, 10, 1}, [3]float64{10, 10, 1}, [3]float64{11, 10, 1}),
	}
}

func TestPlan(t *testing.T) {
	const epoch, numCats = 7, 12
	balanced := map[model.ClusterID]*ClusterLoad{
		0: load(epoch, [3]float64{0, 100, 1}),
		1: load(epoch, [3]float64{3, 101, 1}),
		2: load(epoch, [3]float64{6, 99, 1}),
		3: load(epoch, [3]float64{9, 100, 1}),
	}
	idle := map[model.ClusterID]*ClusterLoad{
		0: load(epoch, [3]float64{0, 0, 1}), 1: load(epoch, [3]float64{3, 0, 2}), 2: load(epoch, [3]float64{6, 0, 1}),
	}
	stale := skewed(epoch)
	stale[0].Epoch = epoch - 1 // the hot cluster's report is last epoch's
	twoHeard := skewed(epoch)
	delete(twoHeard, 2)
	delete(twoHeard, 3)

	cases := []struct {
		name        string
		loads       map[model.ClusterID]*ClusterLoad
		numClusters int
		th          Thresholds
		wantHeard   []model.ClusterID
		wantMoves   bool
	}{
		{"balanced", balanced, 4, defaults, []model.ClusterID{0, 1, 2, 3}, false},
		{"skewed", skewed(epoch), 4, defaults, []model.ClusterID{0, 1, 2, 3}, true},
		{"under half heard", twoHeard, 5, defaults, []model.ClusterID{0, 1}, false},
		{"exactly half heard", twoHeard, 4, defaults, []model.ClusterID{0, 1}, true},
		{"zero hits", idle, 3, Thresholds{LowThreshold: 2, TargetFairness: 2, MaxMoves: 8}, []model.ClusterID{0, 1, 2}, false},
		{"stale epoch ignored", stale, 4, defaults, []model.ClusterID{1, 2, 3}, false},
		{"nothing heard", nil, 4, defaults, nil, false},
		{"max moves", skewed(epoch), 4, Thresholds{LowThreshold: 0.83, TargetFairness: 1, MaxMoves: 1}, []model.ClusterID{0, 1, 2, 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Plan(tc.loads, epoch, tc.numClusters, numCats, tc.th)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d.Heard, tc.wantHeard) {
				t.Errorf("Heard = %v, want %v", d.Heard, tc.wantHeard)
			}
			if (len(d.Moves) > 0) != tc.wantMoves {
				t.Fatalf("moves = %v, want any: %v (fairness %.3f)", d.Moves, tc.wantMoves, d.Fairness)
			}
			if len(d.Moves) > tc.th.MaxMoves {
				t.Errorf("%d moves exceed MaxMoves %d", len(d.Moves), tc.th.MaxMoves)
			}
			if d.FairnessAfter < d.Fairness {
				t.Errorf("FairnessAfter %.4f < measured %.4f", d.FairnessAfter, d.Fairness)
			}
			if !tc.wantMoves && d.FairnessAfter != d.Fairness {
				t.Errorf("no moves but FairnessAfter %.4f != measured %.4f", d.FairnessAfter, d.Fairness)
			}
			heard := make(map[model.ClusterID]bool)
			for _, c := range d.Heard {
				heard[c] = true
			}
			for _, mv := range d.Moves {
				if !heard[mv.From] || !heard[mv.To] || mv.From == mv.To {
					t.Errorf("move %+v is not between two heard clusters %v", mv, d.Heard)
				}
			}
		})
	}
}

func TestPlanHottestTiesToLowestID(t *testing.T) {
	loads := map[model.ClusterID]*ClusterLoad{
		5: load(1, [3]float64{0, 50, 1}),
		2: load(1, [3]float64{1, 50, 1}),
		9: load(1, [3]float64{2, 10, 1}),
	}
	if sv := Measure(loads, 1); sv.Hottest != 2 {
		t.Errorf("Hottest = %d, want 2 (tie between 2 and 5)", sv.Hottest)
	}
}

// TestPlanIndependentOfMapOrder rebuilds the same loads with shuffled
// insertion order (Go randomizes iteration besides) and requires the
// byte-identical decision every time: two leaders that heard the same
// loads must announce the same moves.
func TestPlanIndependentOfMapOrder(t *testing.T) {
	type row struct {
		cl    model.ClusterID
		cat   catalog.CategoryID
		hits  int64
		units float64
	}
	rng := rand.New(rand.NewSource(3))
	var rows []row
	for c := 0; c < 60; c++ {
		hits := int64(rng.Intn(40))
		if c%6 == 0 {
			hits *= 30
		}
		rows = append(rows, row{model.ClusterID(c % 6), catalog.CategoryID(c), hits, 0.1 + rng.Float64()})
	}
	build := func() map[model.ClusterID]*ClusterLoad {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		loads := make(map[model.ClusterID]*ClusterLoad)
		for _, r := range rows {
			if loads[r.cl] == nil {
				loads[r.cl] = &ClusterLoad{Epoch: 4}
			}
			loads[r.cl].Add(map[catalog.CategoryID]int64{r.cat: r.hits}, map[catalog.CategoryID]float64{r.cat: r.units})
		}
		return loads
	}
	want, err := Plan(build(), 4, 6, 60, defaults)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Moves) == 0 {
		t.Fatalf("fixture is not skewed enough to move anything (fairness %.3f)", want.Fairness)
	}
	for i := 0; i < 100; i++ {
		got, err := Plan(build(), 4, 6, 60, defaults)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: decision differs\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestPlanHitsWithoutUnits is the regression for the simulator's NaN
// fairness: a cluster that took hits but reported no capacity used to be
// +Inf there, which made Jain NaN and every threshold test silently false.
func TestPlanHitsWithoutUnits(t *testing.T) {
	loads := skewed(2)
	loads[3] = &ClusterLoad{Epoch: 2, Hits: map[catalog.CategoryID]int64{9: 25}}
	d, err := Plan(loads, 2, 4, 12, defaults)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(d.Fairness) || math.IsInf(d.Fairness, 0) || d.Fairness <= 0 || d.Fairness >= 1 {
		t.Errorf("measured fairness %v, want finite in (0,1)", d.Fairness)
	}
	if d.Hottest != 3 {
		t.Errorf("Hottest = %d, want the unmeasured cluster 3", d.Hottest)
	}
	if math.IsNaN(d.FairnessAfter) {
		t.Errorf("FairnessAfter is NaN")
	}
}

func TestPlanRejectsOutOfRangeCategory(t *testing.T) {
	loads := skewed(1)
	loads[1].Hits[99] = 5
	if _, err := Plan(loads, 1, 4, 12, defaults); err == nil {
		t.Error("category 99 of 12 accepted")
	}
	loads = skewed(1)
	loads[1].Units[-1] = 5
	if _, err := Plan(loads, 1, 4, 12, defaults); err == nil {
		t.Error("category -1 accepted")
	}
}

func TestNormPop(t *testing.T) {
	if x := (&ClusterLoad{}).NormPop(); x != 0 {
		t.Errorf("idle cluster: %v, want 0", x)
	}
	if x := load(1, [3]float64{0, 30, 2}, [3]float64{1, 10, 2}).NormPop(); x != 10 {
		t.Errorf("40 hits over 4 units: %v, want 10", x)
	}
	x := (&ClusterLoad{Hits: map[catalog.CategoryID]int64{0: 1}}).NormPop()
	if math.IsInf(x, 0) || x < 1e12 {
		t.Errorf("hits without units: %v, want huge but finite", x)
	}
}

func TestMergeEntry(t *testing.T) {
	cases := []struct {
		name          string
		have          *DCRTEntry // nil: category unknown
		cat           catalog.CategoryID
		e             DCRTEntry
		wantChanged   bool
		wantRejected  bool
		wantPrevKnown bool
	}{
		{"higher counter wins", &DCRTEntry{1, 5}, 3, DCRTEntry{2, 6}, true, false, true},
		{"equal counter loses", &DCRTEntry{1, 5}, 3, DCRTEntry{2, 5}, false, false, true},
		{"lower counter loses", &DCRTEntry{1, 5}, 3, DCRTEntry{2, 4}, false, false, true},
		{"first contact at zero", nil, 3, DCRTEntry{2, 0}, true, false, false},
		{"jump at the window", &DCRTEntry{1, 5}, 3, DCRTEntry{2, 5 + MaxVersionJump}, true, false, true},
		{"jump past the window", &DCRTEntry{1, 5}, 3, DCRTEntry{2, 5 + MaxVersionJump + 1}, false, true, true},
		{"first contact at the window", nil, 3, DCRTEntry{2, MaxVersionJump}, true, false, false},
		{"first contact past the window", nil, 3, DCRTEntry{2, MaxVersionJump + 1}, false, true, false},
		{"hostile counter", &DCRTEntry{1, 5}, 3, DCRTEntry{2, math.MaxUint64}, false, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dcrt := NewDCRT(NewDCRTBase(nil))
			if tc.have != nil {
				dcrt.Set(3, *tc.have)
			}
			before, _ := dcrt.Get(tc.cat)
			m := MergeEntry(&dcrt, tc.cat, tc.e)
			if m.Changed != tc.wantChanged || m.Rejected != tc.wantRejected || m.Known != tc.wantPrevKnown {
				t.Fatalf("got %+v, want changed=%v rejected=%v known=%v", m, tc.wantChanged, tc.wantRejected, tc.wantPrevKnown)
			}
			if m.Known && m.Prev != *tc.have {
				t.Errorf("Prev = %+v, want %+v", m.Prev, *tc.have)
			}
			want := before
			if tc.wantChanged {
				want = tc.e
			}
			if got, _ := dcrt.Get(tc.cat); got != want {
				t.Errorf("table row = %+v, want %+v", got, want)
			}
			if _, planted := dcrt.Get(tc.cat); planted && !tc.wantChanged && tc.have == nil {
				t.Errorf("rejected entry planted a row for category %d", tc.cat)
			}
		})
	}
}

func TestMoreCapable(t *testing.T) {
	if !MoreCapable(7, 3, 2, 1) || MoreCapable(2, 1, 7, 3) {
		t.Error("more units must win regardless of id")
	}
	if !MoreCapable(2, 3, 7, 3) || MoreCapable(7, 3, 2, 3) {
		t.Error("equal units must tie to the lowest id")
	}
	if MoreCapable(4, 3, 4, 3) {
		t.Error("a node does not outrank itself")
	}
}

func TestUnitMass(t *testing.T) {
	cat := &catalog.Catalog{
		Docs: []catalog.Document{
			{ID: 0, Popularity: 0.1, Categories: []catalog.CategoryID{0}},
			{ID: 1, Popularity: 0.3, Categories: []catalog.CategoryID{0}},
			{ID: 2, Popularity: 0.4, Categories: []catalog.CategoryID{1}},
			{ID: 3, Popularity: 0.2, Categories: []catalog.CategoryID{2}},
		},
	}
	stored := map[catalog.CategoryID][]catalog.DocID{0: {0, 1}, 1: {2}, 2: {3}, 3: nil}
	dcrt := NewDCRT(NewDCRTBase([]model.ClusterID{1, 2, 1}))
	got := UnitMass(cat, 10, stored, &dcrt, 1)
	want := map[catalog.CategoryID]float64{0: 4, 2: 2} // 10·0.4/1.0 and 10·0.2/1.0
	if len(got) != len(want) {
		t.Fatalf("UnitMass = %v, want %v", got, want)
	}
	for c, w := range want {
		if math.Abs(got[c]-w) > 1e-12 {
			t.Errorf("category %d: %v, want %v", c, got[c], w)
		}
	}
	if m := UnitMass(cat, 10, map[catalog.CategoryID][]catalog.DocID{}, &dcrt, 1); len(m) != 0 {
		t.Errorf("node storing nothing has unit mass %v", m)
	}
}
