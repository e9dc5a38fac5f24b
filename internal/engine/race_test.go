package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestEngineConcurrentHammer drives one engine from many goroutines with a
// mix of UTK1 and UTK2 queries over several (k, region) combinations and
// asserts every answer is identical to the direct core.RSA / core.JAA runs —
// the ones Dataset.UTK1 / Dataset.UTK2 perform. Run with -race this doubles
// as the engine's data-race check.
func TestEngineConcurrentHammer(t *testing.T) {
	td := buildData(t, 1500, 3, 17)
	e, err := New(td.recs, Config{MaxK: 10, CacheEntries: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	regions := []*geom.Region{
		box(t, []float64{0.2, 0.3}, []float64{0.25, 0.35}),
		box(t, []float64{0.1, 0.1}, []float64{0.18, 0.2}),
		box(t, []float64{0.4, 0.2}, []float64{0.5, 0.28}),
	}
	ks := []int{2, 5, 10}

	type combo struct {
		variant Variant
		k       int
		region  *geom.Region
		want    string // UTK1: sorted ids; UTK2: sorted multiset of top-k sets
	}
	var combos []combo
	for _, r := range regions {
		for _, k := range ks {
			ids, _, err := core.RSA(td.tree, r, k, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sort.Ints(ids)
			combos = append(combos, combo{UTK1, k, r, fmt.Sprint(ids)})
			cells, _, err := core.JAA(td.tree, r, k, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			combos = append(combos, combo{UTK2, k, r, fmt.Sprint(topKSets(cells))})
		}
	}

	const goroutines = 12
	const iters = 25
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iters; it++ {
				c := combos[rng.Intn(len(combos))]
				res, err := e.Do(context.Background(), Request{Variant: c.variant, K: c.k, Region: c.region})
				if err != nil {
					t.Error(err)
					return
				}
				var got string
				if c.variant == UTK1 {
					got = fmt.Sprint(res.IDs)
				} else {
					got = fmt.Sprint(topKSets(res.Cells))
				}
				if got != c.want {
					t.Errorf("variant %d k=%d: engine answer diverged from direct call", c.variant, c.k)
					return
				}
			}
		}(int64(gi + 1))
	}
	wg.Wait()

	st := e.Stats()
	if st.Queries != goroutines*iters {
		t.Errorf("queries = %d, want %d", st.Queries, goroutines*iters)
	}
	if st.Hits+st.Misses+st.DerivedHits != st.Queries {
		t.Errorf("hits %d + misses %d + derived %d != queries %d", st.Hits, st.Misses, st.DerivedHits, st.Queries)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after drain", st.InFlight)
	}
	if st.Rejected != 0 {
		t.Errorf("rejected = %d, want 0", st.Rejected)
	}
}

// TestEngineBatch sends a mix of valid and invalid requests through
// concurrent Do calls, one goroutine per request: the oversized k errors on
// its own, duplicates agree, and UTK2 returns cells.
func TestEngineBatch(t *testing.T) {
	td := buildData(t, 800, 3, 19)
	e, err := New(td.recs, Config{MaxK: 8, CacheEntries: 8, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := box(t, []float64{0.2, 0.3}, []float64{0.28, 0.36})
	reqs := []Request{
		{Variant: UTK1, K: 3, Region: r},
		{Variant: UTK2, K: 3, Region: r},
		{Variant: UTK1, K: 99, Region: r}, // exceeds MaxK
		{Variant: UTK1, K: 3, Region: r},  // duplicate of the first
	}
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.Do(context.Background(), req)
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil || errs[3] != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if errs[2] == nil {
		t.Fatal("oversized k did not error")
	}
	if fmt.Sprint(results[0].IDs) != fmt.Sprint(results[3].IDs) {
		t.Fatal("duplicate requests disagreed")
	}
	if len(results[1].Cells) == 0 {
		t.Fatal("UTK2 returned no cells")
	}
}
