package utk

// One testing.B benchmark per paper table/figure. Each benchmark times the
// core operation of its figure at a small but representative configuration,
// so `go test -bench=.` finishes quickly; the full sweeps that regenerate
// the figures' tables live in cmd/utkbench (README, "Paper reproduction",
// maps one to the other). Dataset construction is cached across benchmarks.

import (
	"context"
	"math/rand"

	"fmt"
	"repro/internal/klevel"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hull"
	"repro/internal/rtree"
	"repro/internal/skyband"
)

type benchData struct {
	data [][]float64
	tree *rtree.Tree
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchData{}
)

func benchDataset(b *testing.B, name string, gen func() [][]float64) *benchData {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if d, ok := benchCache[name]; ok {
		return d
	}
	data := gen()
	tree, err := rtree.BulkLoad(data, rtree.DefaultFanout)
	if err != nil {
		b.Fatal(err)
	}
	d := &benchData{data: data, tree: tree}
	benchCache[name] = d
	return d
}

func benchIND(b *testing.B, n, d int) *benchData {
	return benchDataset(b, fmt.Sprintf("IND-%d-%d", n, d), func() [][]float64 {
		return dataset.Synthetic(dataset.IND, n, d, 1)
	})
}

func benchBox(b *testing.B, dim int, sigma float64) *geom.Region {
	b.Helper()
	return dataset.RandomBoxes(dim, sigma, 1, 7)[0]
}

const (
	benchN     = 50000
	benchD     = 4
	benchK     = 10
	benchSigma = 0.01
)

// BenchmarkFig9CaseStudy runs the 3-attribute NBA case study end to end
// (Figure 9(b)).
func BenchmarkFig9CaseStudy(b *testing.B) {
	players := dataset.NBA2017()
	m, err := dataset.PlayersMatrix(players, "reb", "pts", "ast")
	if err != nil {
		b.Fatal(err)
	}
	data := dataset.Normalize10(m)
	tree, err := rtree.BulkLoad(data, rtree.DefaultFanout)
	if err != nil {
		b.Fatal(err)
	}
	r, err := geom.NewBox([]float64{0.2, 0.5}, []float64{0.3, 0.6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.JAA(tree, r, 3, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10aFilters measures the three operators Figure 10(a) compares.
func BenchmarkFig10aFilters(b *testing.B) {
	nba := benchDataset(b, "NBA-6000", func() [][]float64 { return dataset.NBA(6000, 1) })
	r := benchBox(b, 7, benchSigma)
	b.Run("k-skyband", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skyband.KSkyband(nba.tree, benchK)
		}
	})
	b.Run("onion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.FilterOnly(nba.tree, nba.data, benchK, baseline.ON)
		}
	})
	b.Run("UTK1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RSA(nba.tree, r, benchK, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig10bTopKCover measures the incremental top-k probe Figure 10(b)
// compares UTK1 against.
func BenchmarkFig10bTopKCover(b *testing.B) {
	nba := benchDataset(b, "NBA-6000", func() [][]float64 { return dataset.NBA(6000, 1) })
	r := benchBox(b, 7, benchSigma)
	ids, _, err := core.RSA(nba.tree, r, benchK, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pivot := r.Pivot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := map[int]bool{}
		for _, id := range ids {
			want[id] = true
		}
		covered := 0
		// Incremental top-k by growing k until all UTK1 records are output.
		for kk := benchK; covered < len(want); kk *= 2 {
			covered = 0
			top, err := benchTopK(nba.data, pivot, kk)
			if err != nil {
				b.Fatal(err)
			}
			for _, id := range top {
				if want[id] {
					covered++
				}
			}
		}
	}
}

func benchTopK(data [][]float64, w []float64, k int) ([]int, error) {
	ds, err := NewDataset(data)
	if err != nil {
		return nil, err
	}
	return ds.TopK(w, k)
}

// BenchmarkFig11aUTK1 compares SK, ON, and RSA at the default k
// (Figure 11(a)).
func BenchmarkFig11aUTK1(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	r := benchBox(b, benchD-1, benchSigma)
	skC := baseline.FilterOnly(idx.tree, idx.data, benchK, baseline.SK)
	onC := baseline.FilterOnly(idx.tree, idx.data, benchK, baseline.ON)
	b.Run("SK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.UTK1From(skC, r, benchK, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ON", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.UTK1From(onC, r, benchK, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RSA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RSA(idx.tree, r, benchK, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig11bUTK2 compares SK, ON, and JAA for UTK2 (Figure 11(b)).
func BenchmarkFig11bUTK2(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	r := benchBox(b, benchD-1, benchSigma)
	skC := baseline.FilterOnly(idx.tree, idx.data, benchK, baseline.SK)
	b.Run("SK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.UTK2From(skC, r, benchK, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("JAA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.JAA(idx.tree, r, benchK, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12 covers the distribution/cardinality sweep of Figure 12:
// RSA and JAA on each distribution at the bench scale.
func BenchmarkFig12(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.COR, dataset.IND, dataset.ANTI} {
		kind := kind
		idx := benchDataset(b, "F12-"+kind.String(), func() [][]float64 {
			return dataset.Synthetic(kind, benchN, benchD, 1)
		})
		r := benchBox(b, benchD-1, benchSigma)
		b.Run("RSA/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.RSA(idx.tree, r, benchK, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("JAA/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.JAA(idx.tree, r, benchK, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13Dimensionality sweeps data dimensionality (Figure 13).
func BenchmarkFig13Dimensionality(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5, 6, 7} {
		d := d
		idx := benchIND(b, benchN, d)
		r := benchBox(b, d-1, benchSigma)
		b.Run(fmt.Sprintf("RSA/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.RSA(idx.tree, r, benchK, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("JAA/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.JAA(idx.tree, r, benchK, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14RegionSize sweeps the query region side σ (Figure 14).
func BenchmarkFig14RegionSize(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	for _, sigma := range []float64{0.001, 0.01, 0.05} {
		r := benchBox(b, benchD-1, sigma)
		b.Run(fmt.Sprintf("RSA/sigma=%g", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.RSA(idx.tree, r, benchK, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("JAA/sigma=%g", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.JAA(idx.tree, r, benchK, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15RealDatasets runs JAA on the three real-data surrogates
// (Figure 15).
func BenchmarkFig15RealDatasets(b *testing.B) {
	specs := []struct {
		name string
		d    int
		gen  func() [][]float64
	}{
		{"HOTEL", 4, func() [][]float64 { return dataset.Hotel(50000, 1) }},
		{"HOUSE", 6, func() [][]float64 { return dataset.House(40000, 1) }},
		{"NBA", 8, func() [][]float64 { return dataset.NBA(6000, 1) }},
	}
	for _, s := range specs {
		idx := benchDataset(b, "F15-"+s.name, s.gen)
		r := benchBox(b, s.d-1, benchSigma)
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.JAA(idx.tree, r, benchK, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16RegionSizeReal sweeps σ on the HOTEL surrogate (Figure 16).
func BenchmarkFig16RegionSizeReal(b *testing.B) {
	idx := benchDataset(b, "F15-HOTEL", func() [][]float64 { return dataset.Hotel(50000, 1) })
	for _, sigma := range []float64{0.001, 0.01, 0.05} {
		r := benchBox(b, 3, sigma)
		b.Run(fmt.Sprintf("sigma=%g", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.JAA(idx.tree, r, benchK, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Defaults runs both algorithms at the Table 1 default
// parameters — the headline configuration of the whole evaluation.
func BenchmarkTable1Defaults(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	r := benchBox(b, benchD-1, benchSigma)
	b.Run("RSA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RSA(idx.tree, r, benchK, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("JAA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.JAA(idx.tree, r, benchK, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDrill quantifies the drill optimization (README, "Paper
// reproduction": ablations).
func BenchmarkAblationDrill(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	r := benchBox(b, benchD-1, benchSigma)
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"drill=graph", core.Options{}},
		{"drill=linear", core.Options{LinearDrill: true}},
		{"drill=off", core.Options{DisableDrill: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.RSA(idx.tree, r, benchK, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubstrates measures the supporting structures in isolation:
// filtering (r-skyband + graph), the R-tree build, and onion layers.
func BenchmarkSubstrates(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	r := benchBox(b, benchD-1, benchSigma)
	b.Run("rskyband-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skyband.BuildGraph(idx.tree, r, benchK)
		}
	})
	b.Run("rtree-bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtree.BulkLoad(idx.data, rtree.DefaultFanout); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("onion-on-skyband", func(b *testing.B) {
		sky := skyband.KSkyband(idx.tree, benchK)
		recs := make([][]float64, len(sky))
		for i, id := range sky {
			recs[i] = idx.data[id]
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hull.OnionLayers(recs, benchK)
		}
	})
}

// BenchmarkSweep2D compares the d = 2 dual-line sweep fast path against the
// general RSA/JAA machinery on 2-attribute data.
func BenchmarkSweep2D(b *testing.B) {
	data := dataset.Synthetic(dataset.IND, 50000, 2, 3)
	tree, err := rtree.BulkLoad(data, rtree.DefaultFanout)
	if err != nil {
		b.Fatal(err)
	}
	r, err := geom.NewBox([]float64{0.4}, []float64{0.45})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := klevel.UTK2(data, 0.4, 0.45, benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("JAA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.JAA(tree, r, benchK, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchEngineSetup builds a Dataset and an Engine over the default bench
// workload for the cold/warm comparison. The engine cache is disabled so the
// warm numbers measure graph reuse alone, not result caching.
func benchEngineSetup(b *testing.B) (*Dataset, *Engine, *Region) {
	b.Helper()
	idx := benchIND(b, benchN, benchD)
	ds, err := NewDataset(idx.data)
	if err != nil {
		b.Fatal(err)
	}
	e, err := ds.NewEngine(EngineConfig{MaxK: 2 * benchK, CacheEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	gr := benchBox(b, benchD-1, benchSigma)
	lo, hi := gr.Bounds()
	r, err := NewBoxRegion(lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	return ds, e, r
}

// BenchmarkEngineColdUTK1 is the amortization baseline: every query pays the
// full Dataset.UTK1 pipeline, including the branch-and-bound filtering pass
// over the whole R-tree.
func BenchmarkEngineColdUTK1(b *testing.B) {
	ds, _, r := benchEngineSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.UTK1(Query{K: benchK, Region: r}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWarmUTK1 runs the same workload through an Engine with the
// result cache disabled: every query is a cache miss, but filtering reuses
// the construction-time candidate superset instead of rescanning the R-tree
// — the build-once/query-many amortization this engine exists for.
func BenchmarkEngineWarmUTK1(b *testing.B) {
	_, e, r := benchEngineSetup(b)
	ctx := context.Background()
	if _, err := e.UTK1(ctx, Query{K: benchK, Region: r}); err != nil {
		b.Fatal(err) // fill the arena and LP pools off the clock
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.UTK1(ctx, Query{K: benchK, Region: r}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWarmUTK2 is the UTK2 counterpart of the warm benchmark.
func BenchmarkEngineWarmUTK2(b *testing.B) {
	ds, e, r := benchEngineSetup(b)
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ds.UTK2(Query{K: benchK, Region: r}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := e.UTK2(ctx, Query{K: benchK, Region: r}); err != nil {
			b.Fatal(err) // fill the arena and LP pools off the clock
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.UTK2(ctx, Query{K: benchK, Region: r}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineHotUTK1 measures the cache-hit path: repeated identical
// queries served straight from the LRU.
func BenchmarkEngineHotUTK1(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	ds, err := NewDataset(idx.data)
	if err != nil {
		b.Fatal(err)
	}
	e, err := ds.NewEngine(EngineConfig{MaxK: 2 * benchK})
	if err != nil {
		b.Fatal(err)
	}
	gr := benchBox(b, benchD-1, benchSigma)
	lo, hi := gr.Bounds()
	r, err := NewBoxRegion(lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.UTK1(ctx, Query{K: benchK, Region: r}); err != nil {
		b.Fatal(err) // populate the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.UTK1(ctx, Query{K: benchK, Region: r}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUTK2 measures one cold UTK2 run on the 50k/d=4 configuration:
// the full JAA pipeline (prefiltered BBS graph build plus refinement). The
// region uses σ = 0.05 and k = 20 so the run is refinement-bound; at the
// σ = 0.01 default this seed's region yields candidates ≤ k — a single-cell
// answer with no refinement at all.
func BenchmarkUTK2(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	r := benchBox(b, benchD-1, 0.05)
	for i := 0; i < b.N; i++ {
		if _, _, err := core.JAA(idx.tree, r, 20, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDynEngine builds a 10k-point engine for the update benchmarks: the
// incremental Insert/Delete path is compared against BenchmarkEngineRebuild,
// the cost a static engine pays per record change.
func benchDynEngine(b *testing.B) *Engine {
	b.Helper()
	idx := benchIND(b, 10000, benchD)
	ds, err := NewDataset(idx.data)
	if err != nil {
		b.Fatal(err)
	}
	e, err := ds.NewEngine(EngineConfig{MaxK: benchK, CacheEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEngineRebuild is the static baseline for the update benchmarks:
// the full engine construction (index + skyband superset) an immutable
// engine re-pays whenever a single record changes.
func BenchmarkEngineRebuild(b *testing.B) {
	idx := benchIND(b, 10000, benchD)
	ds, err := NewDataset(idx.data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.NewEngine(EngineConfig{MaxK: benchK, CacheEntries: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInsert measures one incremental insert on a 10k-point
// engine, mixing bulk-region records with occasional near-skyband ones (the
// expensive case: dominance repair plus an index republish).
func BenchmarkEngineInsert(b *testing.B) {
	e := benchDynEngine(b)
	rng := rand.New(rand.NewSource(5))
	recs := make([][]float64, 4096)
	for i := range recs {
		rec := make([]float64, benchD)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		if i%8 == 0 {
			for j := range rec {
				rec[j] = 0.9 + 0.1*rng.Float64()
			}
		}
		recs[i] = rec
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%4096 == 0 {
			// Inserts accumulate members (duplicates tie rather than evict),
			// so reset the engine off the clock to keep ns/op independent
			// of b.N.
			b.StopTimer()
			e = benchDynEngine(b)
			b.StartTimer()
		}
		if _, err := e.Insert(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDelete measures one incremental delete, cycling through a
// shuffled victim order so band members and bulk records are interleaved.
func BenchmarkEngineDelete(b *testing.B) {
	e := benchDynEngine(b)
	rng := rand.New(rand.NewSource(6))
	victims := rng.Perm(10000)
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(victims) {
			// Victims exhausted: rebuild the engine off the clock.
			b.StopTimer()
			e = benchDynEngine(b)
			next = 0
			b.StartTimer()
		}
		if err := e.Delete(victims[next]); err != nil {
			b.Fatal(err)
		}
		next++
	}
}

// BenchmarkUpdateThenQuery measures the serving cost of interleaved traffic:
// every iteration applies one insert and then answers a UTK1 query, so the
// timer covers incremental maintenance, precise cache invalidation, and the
// (possibly invalidated) query recomputation.
func BenchmarkUpdateThenQuery(b *testing.B) {
	idx := benchIND(b, 10000, benchD)
	ds, err := NewDataset(idx.data)
	if err != nil {
		b.Fatal(err)
	}
	e, err := ds.NewEngine(EngineConfig{MaxK: benchK})
	if err != nil {
		b.Fatal(err)
	}
	gr := benchBox(b, benchD-1, benchSigma)
	lo, hi := gr.Bounds()
	r, err := NewBoxRegion(lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := Query{K: benchK, Region: r}
	if _, err := e.UTK1(ctx, q); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%4096 == 0 {
			// Near-top inserts accumulate in the band; rebuild off the clock
			// so ns/op stays independent of b.N.
			b.StopTimer()
			e, err = ds.NewEngine(EngineConfig{MaxK: benchK})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.UTK1(ctx, q); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		rec := make([]float64, benchD)
		for j := range rec {
			rec[j] = 0.85 + 0.15*rng.Float64() // near-top: frequently invalidating
		}
		if _, err := e.Insert(rec); err != nil {
			b.Fatal(err)
		}
		if _, err := e.UTK1(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineContainment measures the containment-reuse fast path: with
// one UTK2 partitioning cached for an outer region, queries for fresh nested
// regions (never seen before, so always exact-fingerprint misses) are served
// by cell clipping. "cold" is the same nested-region stream paying the full
// pipeline — the bound the derived path must sit far below; the existing
// warm/hot engine benchmarks are the other reference points.
func BenchmarkEngineContainment(b *testing.B) {
	idx := benchIND(b, benchN, benchD)
	ds, err := NewDataset(idx.data)
	if err != nil {
		b.Fatal(err)
	}
	dim := benchD - 1
	gr := benchBox(b, dim, 0.02)
	lo, hi := gr.Bounds()
	outer, err := NewBoxRegion(lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	// Nested regions keep 90–98% of the outer extent at a random offset —
	// the near-miss traffic pattern containment reuse exists for.
	mkInner := func(i int) *Region {
		rng := rand.New(rand.NewSource(int64(i) + 11))
		l := make([]float64, dim)
		h := make([]float64, dim)
		for j := range l {
			w := hi[j] - lo[j]
			shrink := (0.02 + 0.08*rng.Float64()) * w
			off := rng.Float64() * shrink
			l[j] = lo[j] + off
			h[j] = hi[j] - (shrink - off)
		}
		r, err := NewBoxRegion(l, h)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	ctx := context.Background()

	b.Run("cold/utk2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ds.UTK2(Query{K: benchK, Region: mkInner(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, variant := range []string{"utk1", "utk2"} {
		b.Run("derived/"+variant, func(b *testing.B) {
			e, err := ds.NewEngine(EngineConfig{MaxK: 2 * benchK})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.UTK2(ctx, Query{K: benchK, Region: outer}); err != nil {
				b.Fatal(err) // cache the containment source
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := Query{K: benchK, Region: mkInner(i)}
				var derived bool
				if variant == "utk1" {
					res, err := e.UTK1(ctx, q)
					if err != nil {
						b.Fatal(err)
					}
					derived = res.Derived
				} else {
					res, err := e.UTK2(ctx, q)
					if err != nil {
						b.Fatal(err)
					}
					derived = res.Derived
				}
				if !derived {
					b.Fatal("nested query was not containment-derived")
				}
			}
			if st := e.Stats(); st.DerivedHits != uint64(b.N) {
				b.Fatalf("derived hits %d != %d iterations", st.DerivedHits, b.N)
			}
		})
	}
}
