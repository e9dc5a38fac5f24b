package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/shard"
)

type testData struct {
	recs [][]float64
	tree *rtree.Tree
}

func buildData(t testing.TB, n, d int, seed int64) *testData {
	t.Helper()
	recs := dataset.Synthetic(dataset.IND, n, d, seed)
	tree, err := rtree.BulkLoad(recs, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	return &testData{recs: recs, tree: tree}
}

// bandParts are the band maintainers the backend-agnostic tests run over: 1
// is the single skyband.Dynamic, anything above a band partitioned that many
// ways. Everything above the band is the same code, so these tests must pass
// unchanged on both.
var bandParts = []int{1, 3}

// buildEngine builds an engine over recs with its band in the given number
// of parts.
func buildEngine(t testing.TB, parts int, recs [][]float64, cfg Config) *Engine {
	t.Helper()
	var e *Engine
	var err error
	if parts > 1 {
		e, err = NewPartitioned(recs, parts, cfg)
	} else {
		e, err = New(recs, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != parts {
		t.Fatalf("Shards() = %d, want %d", e.Shards(), parts)
	}
	return e
}

// overBands runs f once per entry of bandParts.
func overBands(t *testing.T, f func(t *testing.T, parts int)) {
	for _, parts := range bandParts {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) { f(t, parts) })
	}
}

func box(t testing.TB, lo, hi []float64) *geom.Region {
	t.Helper()
	r, err := geom.NewBox(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// topKSets reduces a UTK2 answer to a comparable form: the sorted multiset
// of its cells' top-k sets. Cell geometry may legitimately differ between
// runs only in ordering, never in content.
func topKSets(cells []core.CellResult) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprint(c.TopK)
	}
	sort.Strings(out)
	return out
}

func TestEngineMatchesDirect(t *testing.T) {
	td := buildData(t, 2000, 3, 11)
	e, err := New(td.recs, Config{MaxK: 12, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	regions := []*geom.Region{
		box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35}),
		box(t, []float64{0.1, 0.1}, []float64{0.2, 0.15}),
	}
	for ri, r := range regions {
		for _, k := range []int{1, 4, 12} {
			wantIDs, _, err := core.RSA(td.tree, r, k, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sort.Ints(wantIDs)
			got, err := e.Do(context.Background(), Request{Variant: UTK1, K: k, Region: r})
			if err != nil {
				t.Fatalf("region %d k=%d: %v", ri, k, err)
			}
			if fmt.Sprint(got.IDs) != fmt.Sprint(wantIDs) {
				t.Errorf("region %d k=%d: UTK1 mismatch\n got %v\nwant %v", ri, k, got.IDs, wantIDs)
			}
			if got.Stats.Candidates == 0 && len(wantIDs) > 0 {
				t.Errorf("region %d k=%d: stats not populated", ri, k)
			}

			wantCells, _, err := core.JAA(td.tree, r, k, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got2, err := e.Do(context.Background(), Request{Variant: UTK2, K: k, Region: r})
			if err != nil {
				t.Fatalf("region %d k=%d: %v", ri, k, err)
			}
			if fmt.Sprint(topKSets(got2.Cells)) != fmt.Sprint(topKSets(wantCells)) {
				t.Errorf("region %d k=%d: UTK2 cell multiset mismatch", ri, k)
			}
		}
	}
}

func TestEngineCacheHitMiss(t *testing.T) { overBands(t, testEngineCacheHitMiss) }

func testEngineCacheHitMiss(t *testing.T, parts int) {
	td := buildData(t, 800, 3, 3)
	e := buildEngine(t, parts, td.recs, Config{MaxK: 10, CacheEntries: 8})
	ctx := context.Background()
	r := box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35})
	base := Request{Variant: UTK1, K: 5, Region: r}

	first, err := e.Do(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second, err := e.Do(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical repeat query missed the cache")
	}
	if fmt.Sprint(second.IDs) != fmt.Sprint(first.IDs) {
		t.Fatal("cache hit returned different ids")
	}

	// Perturbing the region or changing k or the variant must miss. The
	// UTK2 query runs last: once a UTK2 result is cached, a UTK1 query for
	// a contained region would legitimately be answered by containment
	// derivation rather than miss.
	perturbed := box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35 + 1e-9})
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"perturbed region", Request{Variant: UTK1, K: 5, Region: perturbed}},
		{"different k", Request{Variant: UTK1, K: 6, Region: r}},
		{"ablation flag", Request{Variant: UTK1, K: 5, Region: r, Opts: core.Options{DisableDrill: true}}},
		{"other variant", Request{Variant: UTK2, K: 5, Region: r}},
	} {
		res, err := e.Do(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.CacheHit {
			t.Errorf("%s: unexpected cache hit", tc.name)
		}
	}

	st := e.Stats()
	if st.Hits != 1 || st.Misses != 5 {
		t.Errorf("stats = %+v, want 1 hit / 5 misses", st)
	}
	if st.Queries != st.Hits+st.Misses+st.Shared+st.DerivedHits {
		t.Errorf("queries %d != hits+misses+shared+derived %d", st.Queries, st.Hits+st.Misses+st.Shared+st.DerivedHits)
	}
	if st.CacheEntries != 5 {
		t.Errorf("cache entries = %d, want 5", st.CacheEntries)
	}
	if st.SupersetSize == 0 || st.SupersetSize > len(td.recs) {
		t.Errorf("implausible superset size %d", st.SupersetSize)
	}
}

func TestEngineCacheEviction(t *testing.T) {
	td := buildData(t, 400, 3, 5)
	e, err := New(td.recs, Config{MaxK: 6, CacheEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35})
	for k := 1; k <= 3; k++ {
		if _, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: r}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Evictions != 1 || st.CacheEntries != 2 {
		t.Errorf("evictions=%d entries=%d, want 1 and 2", st.Evictions, st.CacheEntries)
	}
	if st.CostEvictions > st.Evictions {
		t.Errorf("cost evictions %d exceed total evictions %d", st.CostEvictions, st.Evictions)
	}
	// The victim is whichever of k=1 / k=2 had the lower retained value
	// (recompute cost scaled by staleness — the measured costs decide, so
	// either is legitimate); the just-added k=3 entry is always exempt.
	res, err := e.Do(ctx, Request{Variant: UTK1, K: 3, Region: r})
	if err != nil || !res.CacheHit {
		t.Errorf("freshly added entry missed the cache (err=%v)", err)
	}
	resident := 0
	e.mu.Lock()
	for k := 1; k <= 2; k++ {
		if _, ok := e.cache.Peek(fingerprint(UTK1, k, r, core.Options{})); ok {
			resident++
		}
	}
	e.mu.Unlock()
	if resident != 1 {
		t.Errorf("%d of the two older entries resident, want exactly 1", resident)
	}
}

func TestFingerprintCanonicalization(t *testing.T) {
	hs := []geom.Halfspace{
		{A: []float64{1, 0}, B: 0.2},
		{A: []float64{-1, 0}, B: -0.4},
		{A: []float64{0, 1}, B: 0.1},
		{A: []float64{0, -1}, B: -0.3},
	}
	r1, err := geom.NewPolytope(2, hs)
	if err != nil {
		t.Fatal(err)
	}
	// Same polytope: half-spaces reordered and scaled by powers of two.
	scaled := []geom.Halfspace{
		{A: []float64{0, 4}, B: 0.4},
		{A: []float64{2, 0}, B: 0.4},
		{A: []float64{0, -2}, B: -0.6},
		{A: []float64{-8, 0}, B: -3.2},
	}
	r2, err := geom.NewPolytope(2, scaled)
	if err != nil {
		t.Fatal(err)
	}
	f1 := fingerprint(UTK1, 5, r1, core.Options{})
	f2 := fingerprint(UTK1, 5, r2, core.Options{})
	if f1 != f2 {
		t.Error("equivalent regions produced different fingerprints")
	}
	if fingerprint(UTK2, 5, r1, core.Options{}) == f1 {
		t.Error("variant not part of the fingerprint")
	}
	if fingerprint(UTK1, 6, r1, core.Options{}) == f1 {
		t.Error("k not part of the fingerprint")
	}
	hs[0].B = 0.21
	r3, err := geom.NewPolytope(2, hs)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(UTK1, 5, r3, core.Options{}) == f1 {
		t.Error("perturbed region shares the fingerprint")
	}
}

func TestEngineValidation(t *testing.T) {
	overBands(t, testEngineValidation)
	td := buildData(t, 5, 3, 7)
	if _, err := NewPartitioned(td.recs, 0, Config{MaxK: 2}); !errors.Is(err, shard.ErrBadShards) {
		t.Errorf("parts = 0: got %v, want ErrBadShards", err)
	}
	if _, err := NewPartitioned(td.recs, 6, Config{MaxK: 2}); !errors.Is(err, shard.ErrTooFewRecords) {
		t.Errorf("more parts than records: got %v, want ErrTooFewRecords", err)
	}
	if _, err := NewPartitioned(td.recs, 2, Config{}); !errors.Is(err, core.ErrBadK) {
		t.Errorf("partitioned MaxK = 0: got %v, want ErrBadK", err)
	}
	if _, err := NewPartitioned(nil, 2, Config{MaxK: 2}); !errors.Is(err, core.ErrEmptyDataset) {
		t.Errorf("partitioned empty dataset: got %v, want ErrEmptyDataset", err)
	}
}

func testEngineValidation(t *testing.T, parts int) {
	td := buildData(t, 200, 3, 7)
	e := buildEngine(t, parts, td.recs, Config{MaxK: 5})
	ctx := context.Background()
	r := box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35})
	if _, err := e.Do(ctx, Request{Variant: UTK1, K: 6, Region: r}); !errors.Is(err, ErrKTooLarge) {
		t.Errorf("k > MaxK: got %v, want ErrKTooLarge", err)
	}
	if _, err := e.Do(ctx, Request{Variant: UTK1, K: 0, Region: r}); !errors.Is(err, core.ErrBadK) {
		t.Errorf("k = 0: got %v, want ErrBadK", err)
	}
	if _, err := e.Do(ctx, Request{Variant: UTK1, K: 3}); !errors.Is(err, ErrNilRegion) {
		t.Errorf("nil region: got %v, want ErrNilRegion", err)
	}
	bad := box(t, []float64{0.2}, []float64{0.3})
	if _, err := e.Do(ctx, Request{Variant: UTK1, K: 3, Region: bad}); !errors.Is(err, core.ErrDimMismatch) {
		t.Errorf("dim mismatch: got %v, want ErrDimMismatch", err)
	}
	if _, err := New(td.recs, Config{MaxK: 0}); !errors.Is(err, core.ErrBadK) {
		t.Errorf("MaxK = 0: got %v, want ErrBadK", err)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	td := buildData(t, 200, 3, 9)
	e, err := New(td.recs, Config{MaxK: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35})
	if _, err := e.Do(ctx, Request{Variant: UTK1, K: 3, Region: r}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: got %v", err)
	}
	if st := e.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

func TestEngineSingleFlight(t *testing.T) { overBands(t, testEngineSingleFlight) }

func testEngineSingleFlight(t *testing.T, parts int) {
	td := buildData(t, 1500, 3, 13)
	// Cache disabled: only in-flight deduplication can coalesce queries.
	e := buildEngine(t, parts, td.recs, Config{MaxK: 8, Workers: 2})
	r := box(t, []float64{0.2, 0.3}, []float64{0.3, 0.4})
	req := Request{Variant: UTK1, K: 8, Region: r}
	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Do(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if fmt.Sprint(results[i].IDs) != fmt.Sprint(results[0].IDs) {
			t.Fatal("concurrent identical queries disagreed")
		}
	}
	st := e.Stats()
	if st.Queries != callers {
		t.Errorf("queries = %d, want %d", st.Queries, callers)
	}
	if st.Misses+st.Shared != callers || st.Hits != 0 {
		t.Errorf("misses %d + shared %d != %d (hits %d)", st.Misses, st.Shared, callers, st.Hits)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after drain", st.InFlight)
	}
}
