package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// uniqueSets reduces a UTK2 answer to its sorted set of distinct top-k sets.
func uniqueSets(cells []core.CellResult) []string {
	seen := map[string]bool{}
	for _, c := range cells {
		seen[fmt.Sprint(c.TopK)] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// cellAt locates the cell of a UTK2 answer containing the weight vector w.
func cellAt(cells []core.CellResult, w []float64) []int {
	for _, c := range cells {
		inside := true
		for _, h := range c.Constraints {
			if !h.Contains(w) {
				inside = false
				break
			}
		}
		if inside {
			return c.TopK
		}
	}
	return nil
}

// TestDerivedHitServesWithoutRefinement pins the acceptance criterion: a
// query whose region sits inside a cached UTK2 region is served by cell
// clipping with ZERO RSA verify calls, JAA partition calls, and drills —
// and the derived answers are exact against direct computation.
func TestDerivedHitServesWithoutRefinement(t *testing.T) {
	td := buildData(t, 600, 3, 7)
	e, err := New(td.recs, Config{MaxK: 8, CacheEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	outer := box(t, []float64{0.15, 0.15}, []float64{0.45, 0.45})
	inner := box(t, []float64{0.2, 0.2}, []float64{0.3, 0.3})
	const k = 4

	src, err := e.Do(ctx, Request{Variant: UTK2, K: k, Region: outer})
	if err != nil {
		t.Fatal(err)
	}
	if src.Derived || src.CacheHit {
		t.Fatal("cold UTK2 reported derived/hit")
	}
	if src.Cost <= 0 {
		t.Fatal("cold result carries no recompute cost")
	}

	// UTK1 over the nested region: derived, zero refinement work.
	got1, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: inner})
	if err != nil {
		t.Fatal(err)
	}
	if !got1.Derived || !got1.CacheHit {
		t.Fatalf("nested UTK1 not served by containment: derived=%v hit=%v", got1.Derived, got1.CacheHit)
	}
	if st := got1.Stats; st.VerifyCalls != 0 || st.PartitionCalls != 0 || st.Drills != 0 {
		t.Fatalf("derived UTK1 did refinement work: verify=%d partition=%d drills=%d",
			st.VerifyCalls, st.PartitionCalls, st.Drills)
	}
	if got1.Cost != src.Cost {
		t.Errorf("derived cost %v not inherited from source %v", got1.Cost, src.Cost)
	}
	want1, _, err := core.RSA(td.tree, inner, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(want1)
	if fmt.Sprint(got1.IDs) != fmt.Sprint(want1) {
		t.Errorf("derived UTK1 %v != direct RSA %v", got1.IDs, want1)
	}

	// UTK2 over the nested region: derived, cells probe-equal to fresh JAA.
	got2, err := e.Do(ctx, Request{Variant: UTK2, K: k, Region: inner})
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Derived {
		t.Fatal("nested UTK2 not served by containment")
	}
	if st := got2.Stats; st.VerifyCalls != 0 || st.PartitionCalls != 0 || st.Drills != 0 {
		t.Fatalf("derived UTK2 did refinement work: %+v", st)
	}
	if !cellInteriorInside(got2.Cells, inner) {
		t.Error("derived cell interior escapes the query region")
	}
	want2, _, err := core.JAA(td.tree, inner, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cell geometry is not canonical — clipping may split or merge where a
	// fresh JAA would not — but the collection of distinct top-k sets over
	// the region is, and the pointwise top-k sets must agree everywhere.
	if fmt.Sprint(uniqueSets(got2.Cells)) != fmt.Sprint(uniqueSets(want2)) {
		t.Errorf("derived UTK2 unique top-k sets != fresh JAA:\n got %v\nwant %v",
			uniqueSets(got2.Cells), uniqueSets(want2))
	}
	rng := rand.New(rand.NewSource(7))
	for p := 0; p < 50; p++ {
		w := []float64{0.2 + 0.1*rng.Float64(), 0.2 + 0.1*rng.Float64()}
		g := cellAt(got2.Cells, w)
		f := cellAt(want2, w)
		if g == nil || f == nil {
			continue // measure-zero boundary landing
		}
		if fmt.Sprint(g) != fmt.Sprint(f) {
			t.Fatalf("probe %v: derived top-k %v != fresh %v", w, g, f)
		}
	}

	st := e.Stats()
	if st.DerivedHits != 2 {
		t.Errorf("derived hits = %d, want 2", st.DerivedHits)
	}
	if st.Queries != st.Hits+st.Misses+st.Shared+st.DerivedHits {
		t.Errorf("counters do not reconcile: %+v", st)
	}

	// Derived answers are themselves cached: identical repeats are exact
	// hits now, not derivations.
	again, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: inner})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("derived answer was not cached")
	}
	if after := e.Stats(); after.DerivedHits != 2 || after.Hits != st.Hits+1 {
		t.Errorf("repeat of a derived answer re-derived: %+v", after)
	}

	// A partially overlapping region must not be served by containment.
	straddle := box(t, []float64{0.4, 0.4}, []float64{0.5, 0.5})
	res, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: straddle})
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived || res.CacheHit {
		t.Error("partially overlapping region served from containment")
	}
}

// TestVertexOnlyRegionNeverDerives: a query region without an
// H-representation has nothing to clip against; derivation must refuse it
// (proceeding would keep every source cell unclipped — a superset answer)
// and the engine must fall back to a normal, exact computation.
func TestVertexOnlyRegionNeverDerives(t *testing.T) {
	td := buildData(t, 400, 3, 29)
	e, err := New(td.recs, Config{MaxK: 6, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	outer := box(t, []float64{0.1, 0.1}, []float64{0.45, 0.45})
	const k = 3
	if _, err := e.Do(ctx, Request{Variant: UTK2, K: k, Region: outer}); err != nil {
		t.Fatal(err)
	}
	// A triangle strictly inside outer, carrying vertices only.
	tri, err := geom.NewPolytopeFromVertices([][]float64{{0.2, 0.2}, {0.3, 0.2}, {0.2, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: tri})
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived || res.CacheHit {
		t.Fatalf("vertex-only region served by containment: derived=%v hit=%v", res.Derived, res.CacheHit)
	}
	if st := e.Stats(); st.DerivedHits != 0 {
		t.Fatalf("derived hits = %d for a vertex-only region", st.DerivedHits)
	}
	want, _, err := core.RSA(td.tree, tri, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(want)
	if fmt.Sprint(res.IDs) != fmt.Sprint(want) {
		t.Errorf("fallback answer %v != direct RSA %v", res.IDs, want)
	}
}

// TestDerivedInvalidation is the update-interleaving case: invalidation must
// evict answers only reachable via containment — both the UTK2 source and
// the derived entries clipped from it — so no stale derivation survives an
// affecting update; and a non-affecting update must leave the derivation
// machinery productive.
func TestDerivedInvalidation(t *testing.T) {
	td := buildData(t, 500, 3, 13)
	e, err := New(td.recs, Config{MaxK: 6, CacheEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	outer := box(t, []float64{0.15, 0.15}, []float64{0.45, 0.45})
	inner := box(t, []float64{0.2, 0.2}, []float64{0.3, 0.3})
	const k = 3

	if _, err := e.Do(ctx, Request{Variant: UTK2, K: k, Region: outer}); err != nil {
		t.Fatal(err)
	}
	first, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: inner})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Derived {
		t.Fatal("nested UTK1 not derived; fixture broken")
	}

	// A new global maximum changes every top-k set everywhere: the source
	// AND the derived entry must go.
	if _, err := e.Insert([]float64{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Invalidations < 2 {
		t.Fatalf("invalidations = %d, want ≥ 2 (source + derived entry)", st.Invalidations)
	}
	derivedBefore := e.Stats().DerivedHits
	second, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: inner})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit || second.Derived {
		t.Fatal("post-update query served from stale containment state")
	}
	if e.Stats().DerivedHits != derivedBefore {
		t.Fatal("post-update query counted as a derived hit")
	}
	// The fresh answer must match a static recomputation over the updated
	// dataset (and differ from the stale derivation, which lacked the new
	// maximum).
	liveRecs := append(append([][]float64{}, td.recs...), []float64{2, 2, 2})
	liveTree, err := rtree.BulkLoad(liveRecs, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.RSA(liveTree, inner, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(want)
	if fmt.Sprint(second.IDs) != fmt.Sprint(want) {
		t.Errorf("post-update answer %v != static recomputation %v", second.IDs, want)
	}
	if fmt.Sprint(second.IDs) == fmt.Sprint(first.IDs) {
		t.Error("post-update answer identical to pre-update derivation; update had no effect")
	}

	// Repopulate the source; an update that never reaches the band cannot
	// disturb it, and derivation keeps working afterwards.
	if _, err := e.Do(ctx, Request{Variant: UTK2, K: k, Region: outer}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert([]float64{0.01, 0.01, 0.01}); err != nil {
		t.Fatal(err)
	}
	inner2 := box(t, []float64{0.25, 0.25}, []float64{0.35, 0.35})
	res, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: inner2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Derived {
		t.Error("derivation unavailable after an irrelevant update")
	}
	want2, _, err := core.RSA(liveTree, inner2, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(want2)
	if fmt.Sprint(res.IDs) != fmt.Sprint(want2) {
		t.Errorf("derived answer after irrelevant update %v != static %v", res.IDs, want2)
	}
}

// TestCostAwareEvictionKeepsExpensivePartitioning: a UTK2 partitioning (ms
// recompute) must outlive a stream of cheap UTK1 entries under capacity
// pressure, even when the UTK2 entry is the least recently used — the
// ROADMAP scenario the cost-aware policy exists for.
func TestCostAwareEvictionKeepsExpensivePartitioning(t *testing.T) {
	td := buildData(t, 800, 3, 23)
	e, err := New(td.recs, Config{MaxK: 8, CacheEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	outer := box(t, []float64{0.15, 0.15}, []float64{0.45, 0.45})
	if _, err := e.Do(ctx, Request{Variant: UTK2, K: 6, Region: outer}); err != nil {
		t.Fatal(err)
	}
	// Flood the cache with cheap UTK1 entries at other depths/regions.
	for i := 0; i < 8; i++ {
		lo := 0.1 + float64(i)*0.02
		r := box(t, []float64{lo, lo}, []float64{lo + 0.015, lo + 0.015})
		if _, err := e.Do(ctx, Request{Variant: UTK1, K: 1 + i%3, Region: r}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Do(ctx, Request{Variant: UTK2, K: 6, Region: outer})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("expensive UTK2 partitioning evicted by cheap UTK1 churn")
	}
	st := e.Stats()
	if st.CostEvictions == 0 {
		t.Errorf("no cost-driven evictions recorded under churn: %+v", st)
	}
}
