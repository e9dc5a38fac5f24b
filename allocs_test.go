package utk

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// Allocation budgets for the serving hot paths, as allocs/op upper bounds.
// The pins sit ~3× above the values measured on the 50k/d=4 default workload
// so they tolerate workload drift and pool-eviction noise (sync.Pool contents
// die with any GC cycle, so an unlucky run re-allocates an arena or an LP
// workspace) while still catching a regression that reintroduces per-call
// allocation on a hot path — the class of bug the scratch arenas, the pooled
// LP workspaces, and the columnar prefilter kernel exist to prevent.
//
// If a legitimate change moves a budget, re-measure with
// `go test -run TestAllocBudgets -v` (the test logs measured values) and
// update the pin to ~3× the new measurement in the same commit, saying why.
const (
	allocBudgetHotUTK1     = 75   // measured 25
	allocBudgetHotUTK2     = 100  // measured 34
	allocBudgetWarmUTK1    = 420  // measured 140 (the streaming prefilter changed the bytes, not the count:
	allocBudgetWarmUTK2    = 500  // measured 164  skyband's TestWarmFilterAllocsIndependentOfN pins those)
	allocBudgetDerivedUTK1 = 100  // measured 33
	allocBudgetDerivedUTK2 = 4000 // measured ~1300 (copies every clipped cell)
	allocBudgetColdUTK1    = 330  // measured 110 (the BBS interval bound's k-slot buffer no longer grows by append)
	allocBudgetColdUTK2    = 405  // measured 135
)

// TestAllocBudgets pins allocs/op on the serving fast paths: cache hits
// (hot), cache-disabled engine recomputes over the maintained superset
// (warm), containment-derived answers (derived), and the full cold Dataset
// pipeline including tree filtering (cold).
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	recs := dataset.Synthetic(dataset.IND, 50000, 4, 1)
	ds, err := NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	gr := dataset.RandomBoxes(3, 0.01, 1, 7)[0]
	lo, hi := gr.Bounds()
	r, err := NewBoxRegion(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{K: 10, Region: r}
	ctx := context.Background()

	check := func(name string, budget float64, f func()) {
		t.Helper()
		got := testing.AllocsPerRun(50, f)
		t.Logf("%-14s %6.1f allocs/op (budget %v)", name, got, budget)
		if got > budget {
			t.Errorf("%s: %.1f allocs/op exceeds the %v budget", name, got, budget)
		}
	}

	// Cold: the full per-query pipeline, R-tree filtering included.
	check("cold/utk1", allocBudgetColdUTK1, func() {
		if _, err := ds.UTK1(q); err != nil {
			t.Fatal(err)
		}
	})
	check("cold/utk2", allocBudgetColdUTK2, func() {
		if _, err := ds.UTK2(q); err != nil {
			t.Fatal(err)
		}
	})

	// Warm: cache-disabled engine, so every query recomputes but filters over
	// the maintained superset through the columnar kernel.
	warm, err := ds.NewEngine(EngineConfig{MaxK: 20, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.UTK1(ctx, q); err != nil {
		t.Fatal(err) // fill the arena and LP pools off the measurement
	}
	check("warm/utk1", allocBudgetWarmUTK1, func() {
		if _, err := warm.UTK1(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	check("warm/utk2", allocBudgetWarmUTK2, func() {
		if _, err := warm.UTK2(ctx, q); err != nil {
			t.Fatal(err)
		}
	})

	// Hot: repeated identical queries served straight from the result cache.
	hot, err := ds.NewEngine(EngineConfig{MaxK: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hot.UTK1(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := hot.UTK2(ctx, q); err != nil {
		t.Fatal(err)
	}
	check("hot/utk1", allocBudgetHotUTK1, func() {
		res, err := hot.UTK1(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatal("hot query missed the cache")
		}
	})
	check("hot/utk2", allocBudgetHotUTK2, func() {
		res, err := hot.UTK2(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatal("hot query missed the cache")
		}
	})

	// Derived: cache one outer UTK2 partitioning, then serve a stream of
	// distinct nested regions by cell clipping. Each run needs a fresh nested
	// region (a repeat would be an exact cache hit instead), so regions are
	// pre-built and consumed one per run.
	der, err := ds.NewEngine(EngineConfig{MaxK: 20, CacheEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	outerGr := dataset.RandomBoxes(3, 0.02, 1, 7)[0]
	olo, ohi := outerGr.Bounds()
	outer, err := NewBoxRegion(olo, ohi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := der.UTK2(ctx, Query{K: 10, Region: outer}); err != nil {
		t.Fatal(err) // cache the outer partitioning
	}
	nested := make([]*Region, 0, 160)
	for i := 0; len(nested) < cap(nested); i++ {
		nlo := make([]float64, len(olo))
		nhi := make([]float64, len(ohi))
		for j := range nlo {
			w := ohi[j] - olo[j]
			nlo[j] = olo[j] + w*(0.05+0.001*float64(i))
			nhi[j] = ohi[j] - w*(0.05+0.0013*float64(i))
		}
		nr, err := NewBoxRegion(nlo, nhi)
		if err != nil {
			continue
		}
		nested = append(nested, nr)
	}
	next := 0
	take := func() *Region {
		if next >= len(nested) {
			t.Fatal("nested region stream exhausted")
		}
		nr := nested[next]
		next++
		return nr
	}
	check("derived/utk1", allocBudgetDerivedUTK1, func() {
		res, err := der.UTK1(ctx, Query{K: 10, Region: take()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Derived {
			t.Fatal("nested query was not containment-derived")
		}
	})
	check("derived/utk2", allocBudgetDerivedUTK2, func() {
		res, err := der.UTK2(ctx, Query{K: 10, Region: take()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Derived {
			t.Fatal("nested query was not containment-derived")
		}
	})
}
