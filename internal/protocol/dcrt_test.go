package protocol

import (
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/model"
)

// refMerge is the §6.1.2 merge rule over a plain map: the reference a
// DCRT must agree with.
func refMerge(ref map[catalog.CategoryID]DCRTEntry, cat catalog.CategoryID, e DCRTEntry) Merge {
	old, known := ref[cat]
	m := Merge{Prev: old, Known: known}
	switch {
	case known && e.MoveCounter <= old.MoveCounter:
	case !PlausibleVersion(old.MoveCounter, e.MoveCounter):
		m.Rejected = true
	default:
		ref[cat] = e
		m.Changed = true
	}
	return m
}

// randomEntry draws one received row for cat against the reference's
// current one: stale, implausible (past MaxVersionJump), the next move,
// a move back to the base cluster, or a plausible jump.
func randomEntry(rng *rand.Rand, assign []model.ClusterID, have DCRTEntry, cat catalog.CategoryID, clusters int) DCRTEntry {
	cl := model.ClusterID(rng.IntN(clusters))
	switch rng.IntN(5) {
	case 0:
		return DCRTEntry{Cluster: cl, MoveCounter: rng.Uint64N(have.MoveCounter + 1)}
	case 1:
		return DCRTEntry{Cluster: cl, MoveCounter: have.MoveCounter + MaxVersionJump + 1 + rng.Uint64N(1<<40)}
	case 2:
		if int(cat) >= 0 && int(cat) < len(assign) && assign[cat] != model.NoCluster {
			cl = assign[cat]
		}
		return DCRTEntry{Cluster: cl, MoveCounter: have.MoveCounter + 1}
	case 3:
		return DCRTEntry{Cluster: cl, MoveCounter: have.MoveCounter + 1}
	default:
		return DCRTEntry{Cluster: cl, MoveCounter: have.MoveCounter + rng.Uint64N(MaxVersionJump+1)}
	}
}

// checkTable requires t to hold exactly ref's rows: by lookup over every
// category the test draws, by Range in ascending order and by Snapshot.
func checkTable(t *testing.T, k int, dt *DCRT, ref map[catalog.CategoryID]DCRTEntry, lo, hi catalog.CategoryID) {
	t.Helper()
	for c := lo; c < hi; c++ {
		got, ok := dt.Get(c)
		want, wantOK := ref[c]
		if got != want || ok != wantOK {
			t.Fatalf("table %d, category %d: Get = %+v, %v; want %+v, %v", k, c, got, ok, want, wantOK)
		}
	}
	var seen []catalog.CategoryID
	dt.Range(func(c catalog.CategoryID, e DCRTEntry) bool {
		if want, ok := ref[c]; !ok || e != want {
			t.Fatalf("table %d: Range visits category %d as %+v; reference has %+v, %v", k, c, e, want, ok)
		}
		seen = append(seen, c)
		return true
	})
	if !slices.IsSorted(seen) || len(seen) != len(ref) {
		t.Fatalf("table %d: Range visits %v; reference has %d rows", k, seen, len(ref))
	}
	if !maps.Equal(dt.Snapshot(), ref) {
		t.Fatalf("table %d: Snapshot differs from the reference", k)
	}
}

// TestDCRTSharedBaseProperty builds K tables on one base and applies
// random MergeEntry sequences to them — stale rows, implausible ones,
// new categories over a NoCluster base row and past the base's end,
// moves back to the base cluster — each alongside a reference map
// merged by the same rule. Every table agrees with its own reference by
// lookup and iteration, so none sees another's rows, and the base stays
// byte for byte what it was built from. A second phase merges into every
// table at once while readers look up never-written tables on the same
// base: under -race, sharing the base is clean.
func TestDCRTSharedBaseProperty(t *testing.T) {
	const (
		cats     = 40
		clusters = 6
		tables   = 8
		steps    = 4000
		lo, hi   = catalog.CategoryID(0), catalog.CategoryID(cats + 6)
	)
	rng := rand.New(rand.NewPCG(52, 1))
	assign := make([]model.ClusterID, cats)
	for c := range assign {
		assign[c] = model.ClusterID(rng.IntN(clusters))
		if rng.IntN(4) == 0 {
			assign[c] = model.NoCluster
		}
	}
	frozen := slices.Clone(assign)
	base := NewDCRTBase(assign)
	assign[0], assign[1] = 5, model.NoCluster // the base is a copy, not an alias
	assign = frozen

	dts := make([]DCRT, tables)
	refs := make([]map[catalog.CategoryID]DCRTEntry, tables)
	for k := range dts {
		dts[k] = NewDCRT(base)
		refs[k] = make(map[catalog.CategoryID]DCRTEntry)
		for c, cl := range assign {
			if cl != model.NoCluster {
				refs[k][catalog.CategoryID(c)] = DCRTEntry{Cluster: cl}
			}
		}
	}
	merge := func(rng *rand.Rand, k int) {
		cat := lo + catalog.CategoryID(rng.IntN(int(hi-lo)))
		e := randomEntry(rng, assign, refs[k][cat], cat, clusters)
		if got, want := MergeEntry(&dts[k], cat, e), refMerge(refs[k], cat, e); got != want {
			t.Errorf("table %d, category %d, entry %+v: MergeEntry = %+v, want %+v", k, cat, e, got, want)
		}
	}
	for step := 0; step < steps; step++ {
		merge(rng, rng.IntN(tables))
		if step%200 == 0 {
			for k := range dts {
				checkTable(t, k, &dts[k], refs[k], lo, hi)
			}
		}
	}
	for k := range dts {
		checkTable(t, k, &dts[k], refs[k], lo, hi)
	}
	if !slices.Equal(base.clusters, frozen) {
		t.Fatalf("the base changed: %v, built from %v", base.clusters, frozen)
	}

	// Concurrent phase: one writer per table, readers on fresh tables.
	var wg sync.WaitGroup
	for k := range dts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(52, uint64(k)+2))
			for range steps / tables {
				merge(rng, k)
			}
		}(k)
	}
	launch := make(map[catalog.CategoryID]DCRTEntry)
	for c, cl := range assign {
		if cl != model.NoCluster {
			launch[catalog.CategoryID(c)] = DCRTEntry{Cluster: cl}
		}
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				fresh := NewDCRT(base)
				for c := lo; c < hi; c++ {
					want, wantOK := launch[c]
					if got, ok := fresh.Get(c); got != want || ok != wantOK {
						t.Errorf("a never-written table reads category %d as %+v, %v", c, got, ok)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for k := range dts {
		checkTable(t, k, &dts[k], refs[k], lo, hi)
	}
	if !slices.Equal(base.clusters, frozen) {
		t.Fatalf("the base changed: %v, built from %v", base.clusters, frozen)
	}
}
