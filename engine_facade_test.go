package utk

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func facadeFixture(t *testing.T) (*Dataset, *Region) {
	t.Helper()
	ds, err := NewDataset(dataset.Synthetic(dataset.IND, 1200, 3, 23))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewBoxRegion([]float64{0.2, 0.3}, []float64{0.27, 0.36})
	if err != nil {
		t.Fatal(err)
	}
	return ds, r
}

func cellSets(cells []Cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprint(c.TopK)
	}
	sort.Strings(out)
	return out
}

func TestEngineFacadeMatchesDataset(t *testing.T) {
	ds, r := facadeFixture(t)
	e, err := ds.NewEngine(EngineConfig{MaxK: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{1, 5, 10} {
		q := Query{K: k, Region: r}
		want1, err := ds.UTK1(q)
		if err != nil {
			t.Fatal(err)
		}
		got1, err := e.UTK1(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got1.Records) != fmt.Sprint(want1.Records) {
			t.Errorf("k=%d: engine UTK1 %v != dataset %v", k, got1.Records, want1.Records)
		}
		want2, err := ds.UTK2(q)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := e.UTK2(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(cellSets(got2.Cells)) != fmt.Sprint(cellSets(want2.Cells)) {
			t.Errorf("k=%d: engine UTK2 cells diverged from dataset", k)
		}
	}

	// Second round: everything above must now be a cache hit.
	res, err := e.UTK1(ctx, Query{K: 5, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("repeat UTK1 query was not served from the cache")
	}
	st := e.Stats()
	if st.Hits == 0 || st.Misses != 6 {
		t.Errorf("stats = %+v, want 6 misses and ≥1 hit", st)
	}

	if _, err := e.UTK1(ctx, Query{K: 5, Region: r, Algorithm: AlgoBaselineSK}); err == nil {
		t.Error("engine accepted a baseline algorithm")
	}
	if _, err := e.UTK1(ctx, Query{K: 11, Region: r}); err == nil {
		t.Error("engine accepted k above MaxK")
	}
}

func TestEngineFacadeBatchAndConcurrency(t *testing.T) {
	ds, r := facadeFixture(t)
	e, err := ds.NewEngine(EngineConfig{MaxK: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := []Query{
		{K: 2, Region: r},
		{K: 4, Region: r},
		{K: 2, Region: r}, // duplicate
	}
	results, errs := e.UTK1Batch(ctx, qs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch[%d]: %v", i, err)
		}
	}
	if fmt.Sprint(results[0].Records) != fmt.Sprint(results[2].Records) {
		t.Fatal("duplicate batch queries disagreed")
	}

	want, err := ds.UTK1(Query{K: 6, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.UTK1(ctx, Query{K: 6, Region: r})
			if err != nil {
				t.Error(err)
				return
			}
			if fmt.Sprint(got.Records) != fmt.Sprint(want.Records) {
				t.Error("concurrent facade query diverged from dataset answer")
			}
		}()
	}
	wg.Wait()
}

func TestEngineFacadeUpdates(t *testing.T) {
	ds, r := facadeFixture(t)
	e, err := ds.NewEngine(EngineConfig{MaxK: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{K: 4, Region: r}

	if _, err := e.UTK1(ctx, q); err != nil {
		t.Fatal(err)
	}

	// Insert a record that tops every ranking; it must show up immediately.
	id, err := e.Insert([]float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if id != ds.Len() {
		t.Errorf("assigned id %d, want %d", id, ds.Len())
	}
	res, err := e.UTK1(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, got := range res.Records {
		found = found || got == id
	}
	if !found {
		t.Errorf("inserted top record %d missing from %v", id, res.Records)
	}
	res2, err := e.UTK2(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res2.Cells {
		in := false
		for _, got := range c.TopK {
			in = in || got == id
		}
		if !in {
			t.Errorf("inserted top record %d missing from UTK2 cell %v", id, c.TopK)
		}
	}

	// A batch: delete the newcomer, insert two replacements.
	bres, err := e.ApplyBatch([]UpdateOp{
		{Kind: UpdateDelete, ID: id},
		{Kind: UpdateInsert, Record: []float64{1.5, 1.5, 1.5}},
		{Kind: UpdateInsert, Record: []float64{0.01, 0.01, 0.01}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids := bres.IDs; len(ids) != 3 || ids[0] != id || ids[1] != id+1 || ids[2] != id+2 {
		t.Errorf("batch ids = %v", ids)
	}
	if bres.Live != ds.Len()+2 || bres.Epoch == 0 {
		t.Errorf("batch result state = %+v", bres)
	}
	res, err = e.UTK1(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range res.Records {
		if got == id {
			t.Errorf("deleted record %d still reported", id)
		}
	}

	// The engine's answers equal a from-scratch Dataset over the same
	// logical records (positional ids remapped).
	recs := make([][]float64, 0, ds.Len()+2)
	idMap := make([]int, 0, ds.Len()+2)
	for i := 0; i < ds.Len(); i++ {
		recs = append(recs, ds.Record(i))
		idMap = append(idMap, i)
	}
	recs = append(recs, []float64{1.5, 1.5, 1.5}, []float64{0.01, 0.01, 0.01})
	idMap = append(idMap, id+1, id+2)
	fresh, err := NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.UTK1(q)
	if err != nil {
		t.Fatal(err)
	}
	mapped := make([]int, len(want.Records))
	for i, pos := range want.Records {
		mapped[i] = idMap[pos]
	}
	sort.Ints(mapped)
	if fmt.Sprint(res.Records) != fmt.Sprint(mapped) {
		t.Errorf("post-batch engine %v != fresh dataset %v", res.Records, mapped)
	}

	st := e.Stats()
	if st.Inserts != 3 || st.Deletes != 1 || st.UpdateBatches != 2 {
		t.Errorf("update counters: %+v", st)
	}
	if st.Live != ds.Len()+2 {
		t.Errorf("live = %d, want %d", st.Live, ds.Len()+2)
	}
	if st.Epoch == 0 {
		t.Error("epoch never advanced")
	}
	if st.SupersetSize == 0 || st.Exhaustions != 0 || st.Rebuilds != 0 {
		t.Errorf("band counters: %+v", st.DynamicStats)
	}

	// Validation errors surface through the exported sentinels.
	if _, err := e.Insert([]float64{1, 2}); !errors.Is(err, ErrBadUpdate) {
		t.Errorf("dim mismatch: %v", err)
	}
	if err := e.Delete(id); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("double delete: %v", err)
	}
}

// TestEngineAttributesBeyondFloat32 is the serving-path regression test for
// records beyond float32 range (any finite float64 is a valid attribute):
// with one attribute of 1e39 the float32 layout the warm filter once used had
// NaN bounds, and the engine dropped the second-best record everywhere from
// k = 2 up. The engine must answer exactly what the stateless Dataset
// answers.
func TestEngineAttributesBeyondFloat32(t *testing.T) {
	for _, records := range [][][]float64{
		{{1e39, 1e39}, {-5, -2}, {-2, -5}, {-6, -3}, {-3, -6}, {-7, -7}},
		{{-1e39, 2, 1e39}, {-5, -4, -6}, {3e38, -6, -5}, {-7, 1e-3, -7}, {-8, -8, 0}},
	} {
		ds, err := NewDataset(records)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(records, EngineConfig{MaxK: 3})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := []float64{0.2, 0.3}[:ds.Dim()-1], []float64{0.4, 0.35}[:ds.Dim()-1]
		r, err := NewBoxRegion(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for k := 1; k <= 3; k++ {
			q := Query{K: k, Region: r}
			want1, err := ds.UTK1(q)
			if err != nil {
				t.Fatal(err)
			}
			got1, err := e.UTK1(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got1.Records) != fmt.Sprint(want1.Records) {
				t.Errorf("d=%d k=%d: engine UTK1 %v != dataset %v", ds.Dim(), k, got1.Records, want1.Records)
			}
			want2, err := ds.UTK2(q)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := e.UTK2(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(uniqueTopKSets(got2.Cells)) != fmt.Sprint(uniqueTopKSets(want2.Cells)) {
				t.Errorf("d=%d k=%d: engine UTK2 top-k sets %v != dataset %v", ds.Dim(), k, uniqueTopKSets(got2.Cells), uniqueTopKSets(want2.Cells))
			}
		}
	}
}
