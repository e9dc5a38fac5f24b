package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
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

// buildEngine builds an engine over recs or fails the test.
func buildEngine(t testing.TB, recs [][]float64, cfg Config) *Engine {
	t.Helper()
	e, err := New(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// onePart runs f as the subtest "parts=1", the name these tests have kept
// from when they also ran over a partitioned band.
func onePart(t *testing.T, f func(*testing.T)) { t.Run("parts=1", f) }

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

func TestEngineCacheHitMiss(t *testing.T) { onePart(t, testEngineCacheHitMiss) }

func testEngineCacheHitMiss(t *testing.T) {
	td := buildData(t, 800, 3, 3)
	e := buildEngine(t, td.recs, Config{MaxK: 10, CacheEntries: 8})
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
	if st.Hits != 1 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 1 hit / 4 misses", st)
	}
	if st.Queries != st.Hits+st.Misses+st.Shared+st.DerivedHits {
		t.Errorf("queries %d != hits+misses+shared+derived %d", st.Queries, st.Hits+st.Misses+st.Shared+st.DerivedHits)
	}
	if st.CacheEntries != 4 {
		t.Errorf("cache entries = %d, want 4", st.CacheEntries)
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
	// LRU: the victim is k=1, the least recently used; k=2 and the
	// just-added k=3 stay resident.
	res, err := e.Do(ctx, Request{Variant: UTK1, K: 3, Region: r})
	if err != nil || !res.CacheHit {
		t.Errorf("freshly added entry missed the cache (err=%v)", err)
	}
	e.mu.Lock()
	_, k1 := e.cache.Peek(fingerprint(UTK1, 1, r))
	_, k2 := e.cache.Peek(fingerprint(UTK1, 2, r))
	e.mu.Unlock()
	if k1 || !k2 {
		t.Errorf("k=1 resident=%v, k=2 resident=%v; want k=1 evicted and k=2 kept", k1, k2)
	}
}

// TestCacheResidencyDeterministic: residency is a function of the request
// stream alone. Two engines fed the same sequence — parent UTK2 boxes,
// nested boxes derived from them, repeats, and more distinct queries than
// the cache holds — end with the same resident keys and the same counters.
func TestCacheResidencyDeterministic(t *testing.T) {
	td := buildData(t, 400, 3, 31)
	rng := rand.New(rand.NewSource(5))
	var reqs []Request
	for i := 0; i < 120; i++ {
		lo := 0.05 + 0.06*float64(rng.Intn(4))
		k := 1 + rng.Intn(2)
		if rng.Intn(3) == 0 {
			reqs = append(reqs, Request{Variant: UTK2, K: k, Region: box(t, []float64{lo, lo}, []float64{lo + 0.05, lo + 0.05})})
			continue
		}
		off := 0.01 + 0.02*float64(rng.Intn(2))
		inner := box(t, []float64{lo + off, lo + off}, []float64{lo + off + 0.01, lo + off + 0.01})
		reqs = append(reqs, Request{Variant: Variant(rng.Intn(2)), K: k, Region: inner})
	}
	run := func() ([]string, Stats) {
		e := buildEngine(t, td.recs, Config{MaxK: 4, CacheEntries: 6})
		for _, req := range reqs {
			if _, err := e.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		e.mu.Lock()
		var keys []string
		for _, row := range e.cache.Snapshot() {
			keys = append(keys, row.Key)
		}
		e.mu.Unlock()
		sort.Strings(keys)
		return keys, e.Stats()
	}
	keysA, a := run()
	keysB, b := run()
	if a.Hits == 0 || a.DerivedHits == 0 || a.Evictions == 0 {
		t.Fatalf("sequence exercised too little: %+v", a)
	}
	if !slices.Equal(keysA, keysB) {
		t.Errorf("resident keys differ between identical runs")
	}
	ca := [4]uint64{a.Hits, a.DerivedHits, a.Misses, a.Evictions}
	cb := [4]uint64{b.Hits, b.DerivedHits, b.Misses, b.Evictions}
	if ca != cb {
		t.Errorf("hits/derived/misses/evictions %v vs %v", ca, cb)
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
	f1 := fingerprint(UTK1, 5, r1)
	f2 := fingerprint(UTK1, 5, r2)
	if f1 != f2 {
		t.Error("equivalent regions produced different fingerprints")
	}
	if fingerprint(UTK2, 5, r1) == f1 {
		t.Error("variant not part of the fingerprint")
	}
	if fingerprint(UTK1, 6, r1) == f1 {
		t.Error("k not part of the fingerprint")
	}
	hs[0].B = 0.21
	r3, err := geom.NewPolytope(2, hs)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(UTK1, 5, r3) == f1 {
		t.Error("perturbed region shares the fingerprint")
	}
}

func TestEngineValidation(t *testing.T) { onePart(t, testEngineValidation) }

func testEngineValidation(t *testing.T) {
	td := buildData(t, 200, 3, 7)
	e := buildEngine(t, td.recs, Config{MaxK: 5, CacheEntries: -1})
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
	e, err := New(td.recs, Config{MaxK: 5, CacheEntries: -1, Workers: 1})
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

func TestEngineSingleFlight(t *testing.T) { onePart(t, testEngineSingleFlight) }

func testEngineSingleFlight(t *testing.T) {
	td := buildData(t, 1500, 3, 13)
	// Cache disabled: only in-flight deduplication can coalesce queries.
	e := buildEngine(t, td.recs, Config{MaxK: 8, CacheEntries: -1, Workers: 2})
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

// TestMaxKBound pins the largest MaxK an engine accepts: the cache key holds
// k in three bytes, so a larger MaxK would let a query at k + 2²⁴ hit the
// entry cached for k. New refuses MaxK above maxK, and at maxK the deepest
// query is answered on its own (every record), not from k = 3's entry.
// TestRestoreChecksRecords holds a restored state's records to the rule New
// holds records to: a state whose records have fewer attributes than its
// dimensionality, or a NaN coordinate, is refused, where a restore that
// took them would panic or misanswer on the first query.
func TestRestoreChecksRecords(t *testing.T) {
	td := buildData(t, 60, 3, 4)
	cfg := Config{MaxK: 4, CacheEntries: -1}
	good := buildEngine(t, td.recs, cfg).ExportState()
	if _, err := Restore(good, cfg); err != nil {
		t.Fatalf("a valid state refused: %v", err)
	}
	for name, bad := range map[string]func(st *State){
		"dimension mismatch": func(st *State) {
			for i, rec := range st.Dyn.LiveRecs {
				st.Dyn.LiveRecs[i] = rec[:2]
			}
		},
		"NaN coordinate": func(st *State) { st.Dyn.LiveRecs[7] = []float64{0.5, math.NaN(), 0.5} },
	} {
		st := buildEngine(t, td.recs, cfg).ExportState()
		bad(st)
		e, err := Restore(st, cfg)
		if err == nil {
			_, qerr := e.Do(context.Background(), Request{Variant: UTK1, K: 3, Region: box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35})})
			t.Errorf("%s: restored (first query: %v)", name, qerr)
		}
	}
}

func TestMaxKBound(t *testing.T) {
	td := buildData(t, 200, 3, 9)
	for _, mk := range []int{maxK + 1, 1<<24 + 10} {
		if _, err := New(td.recs, Config{MaxK: mk, CacheEntries: 16}); !errors.Is(err, core.ErrBadK) {
			t.Fatalf("MaxK = %d: got %v, want ErrBadK", mk, err)
		}
	}
	e := buildEngine(t, td.recs, Config{MaxK: maxK, CacheEntries: 16})
	r := box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35})
	shallow, err := e.Do(context.Background(), Request{Variant: UTK1, K: 3, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := e.Do(context.Background(), Request{Variant: UTK1, K: maxK, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if deep.CacheHit || len(deep.IDs) != len(td.recs) || len(shallow.IDs) >= len(td.recs) {
		t.Fatalf("k = 3 answered %d ids; k = %d answered %d ids (cache hit %v), want all %d", len(shallow.IDs), maxK, len(deep.IDs), deep.CacheHit, len(td.recs))
	}
}
