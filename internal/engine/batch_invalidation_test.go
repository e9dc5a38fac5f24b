package engine

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
)

// TestBatchAwareInvalidation pins the batch-level invalidation semantics:
// probes certify the pre-batch vs post-batch states as wholes, against one
// shared final-band snapshot, rather than composing per-op probes. The
// observable consequences regression-tested here:
//
//  1. A transient record (inserted and deleted by the same batch) exists in
//     neither boundary state, so even a globally dominating transient must
//     leave every cache entry resident — invalidation count pinned at 0.
//     (Per-op probing would have evicted everything.)
//  2. A batch whose net effect is relevant still evicts exactly the
//     affected entries — count pinned, and the surviving entries stay
//     exact against a static recomputation.
func TestBatchAwareInvalidation(t *testing.T) {
	recs := [][]float64{
		{1.0, 1.0, 1.0},
		{0.9, 0.9, 0.9},
		{0.8, 0.8, 0.8},
		{0.1, 0.1, 0.1},
		{0.12, 0.08, 0.1},
	}
	e, err := New(recs, Config{MaxK: 4, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := box(t, []float64{0.3, 0.3}, []float64{0.35, 0.35})

	query := func(k int) *Result {
		t.Helper()
		res, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: r})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first2 := query(2)
	first4 := query(4)

	// A transient global maximum: per-op probing would evict both entries;
	// the batch-aware probe skips the record entirely.
	res, err := e.ApplyBatch([]UpdateOp{
		{Kind: UpdateInsert, Record: []float64{2, 2, 2}},
		{Kind: UpdateDelete, ID: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Live != 5 {
		t.Fatalf("transient batch live = %d, want 5", res.Live)
	}
	if st := e.Stats(); st.Invalidations != 0 {
		t.Fatalf("invalidations = %d after transient batch, want 0", st.Invalidations)
	}
	for _, k := range []int{2, 4} {
		res := query(k)
		if !res.CacheHit {
			t.Errorf("k=%d entry evicted by a transient batch", k)
		}
	}
	if fmt.Sprint(query(2).IDs) != fmt.Sprint(first2.IDs) || fmt.Sprint(query(4).IDs) != fmt.Sprint(first4.IDs) {
		t.Error("transient batch changed cached answers")
	}

	// A net-relevant batch: insert a record that lands in the band with
	// three r-dominators throughout R (a, b, c). It cannot reach depth 2 but
	// can reach depth 4 — exactly one of the two resident entries goes.
	if _, err := e.ApplyBatch([]UpdateOp{
		{Kind: UpdateInsert, Record: []float64{0.85, 0.5, 0.5}},
	}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d after shielded insert batch, want 1 (only k=4)", st.Invalidations)
	}
	if res := query(2); !res.CacheHit {
		t.Error("k=2 entry evicted by a depth-shielded batch")
	}
	if res := query(4); res.CacheHit {
		t.Error("k=4 entry survived an affecting batch")
	}

	// The surviving k=2 entry must still be exact for the updated dataset.
	live := [][]float64{
		{1.0, 1.0, 1.0},
		{0.9, 0.9, 0.9},
		{0.8, 0.8, 0.8},
		{0.1, 0.1, 0.1},
		{0.85, 0.5, 0.5},
	}
	liveTree, err := rtree.BulkLoad(live, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.RSA(liveTree, r, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Map static positions to engine ids: positions 0..3 are ids 0..3, and
	// position 4 (the 0.85 insert) carries engine id 6 (id 5 was deleted,
	// the transient took id 5... ids 5 and 6 went to the transient and the
	// shielded insert respectively).
	mapped := make([]int, len(want))
	for i, pos := range want {
		if pos == 4 {
			mapped[i] = 6
		} else {
			mapped[i] = pos
		}
	}
	sort.Ints(mapped)
	if got := query(2); fmt.Sprint(got.IDs) != fmt.Sprint(mapped) {
		t.Errorf("surviving k=2 entry %v != static recomputation %v", got.IDs, mapped)
	}
}

// TestBatchDeleteProbeCoversInsertedDominators pins the soundness corner the
// batch-aware scheme must get right: a batch inserts y dominating d, then
// deletes d. At delete time d is no longer in the band (y dominates it), so a
// naive per-op InBand test would skip d's probe — yet d was servable
// pre-batch, so cached entries containing it MUST go. The batch scheme
// classifies deletes by starting-band membership and excludes batch-inserted
// records from their probes, so the eviction fires.
func TestBatchDeleteProbeCoversInsertedDominators(t *testing.T) {
	recs := [][]float64{
		{0.9, 0.2, 0.2}, // 0: d — in every shallow top-k near w=(0.8,0.1)
		{0.2, 0.6, 0.2},
		{0.2, 0.2, 0.6},
		{0.1, 0.1, 0.1},
	}
	e, err := New(recs, Config{MaxK: 2, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := box(t, []float64{0.75, 0.05}, []float64{0.8, 0.1})

	first, err := e.Do(ctx, Request{Variant: UTK1, K: 1, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first.IDs) != "[0]" {
		t.Fatalf("pre-batch top-1 over R = %v, want [0]", first.IDs)
	}

	if _, err := e.ApplyBatch([]UpdateOp{
		{Kind: UpdateInsert, Record: []float64{0.95, 0.3, 0.3}}, // y: dominates d
		{Kind: UpdateDelete, ID: 0},                             // d leaves; y replaces it
	}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Invalidations == 0 {
		t.Fatal("batch replacing the top record invalidated nothing")
	}
	after, err := e.Do(ctx, Request{Variant: UTK1, K: 1, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("stale top-1 entry served from cache after its record was replaced")
	}
	if fmt.Sprint(after.IDs) != "[4]" {
		t.Fatalf("post-batch top-1 over R = %v, want [4] (the replacement)", after.IDs)
	}
}
