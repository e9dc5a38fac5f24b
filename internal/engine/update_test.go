package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rtree"
	"repro/internal/skyband"
)

func TestEngineInsertDeleteBasics(t *testing.T) {
	td := buildData(t, 500, 3, 21)
	e, err := New(td.recs, Config{MaxK: 6, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := box(t, []float64{0.2, 0.3}, []float64{0.3, 0.4})

	id, err := e.Insert([]float64{2, 2, 2}) // dominates everything
	if err != nil {
		t.Fatal(err)
	}
	if id != 500 {
		t.Errorf("first insert id = %d, want 500", id)
	}
	res, err := e.Do(ctx, Request{Variant: UTK1, K: 3, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if sort.SearchInts(res.IDs, id) == len(res.IDs) || res.IDs[sort.SearchInts(res.IDs, id)] != id {
		t.Errorf("dominating insert %d missing from UTK1 answer %v", id, res.IDs)
	}

	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	res, err = e.Do(ctx, Request{Variant: UTK1, K: 3, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range res.IDs {
		if got == id {
			t.Errorf("deleted record %d still in UTK1 answer", id)
		}
	}

	// The engine's answers after updates must equal a static engine built
	// over the same logical dataset.
	live := append([][]float64{}, td.recs...)
	tree, err := rtree.BulkLoad(live, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.RSA(tree, r, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(want)
	if fmt.Sprint(res.IDs) != fmt.Sprint(want) {
		t.Errorf("post-update answer %v != static %v", res.IDs, want)
	}

	st := e.Stats()
	if st.Inserts != 1 || st.Deletes != 1 || st.UpdateBatches != 2 {
		t.Errorf("update counters = %+v", st)
	}
	if st.Live != 500 {
		t.Errorf("live = %d, want 500", st.Live)
	}
	if st.Epoch == 0 {
		t.Error("epoch did not advance across band-changing updates")
	}
}

func TestEngineUpdateValidation(t *testing.T) { overBands(t, testEngineUpdateValidation) }

func testEngineUpdateValidation(t *testing.T, parts int) {
	td := buildData(t, 100, 3, 23)
	e := buildEngine(t, parts, td.recs, Config{MaxK: 4})
	if _, err := e.Insert([]float64{1, 2}); !errors.Is(err, ErrBadUpdate) {
		t.Errorf("dim mismatch: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := e.Insert([]float64{1, 2, v}); !errors.Is(err, ErrBadUpdate) {
			t.Errorf("%g: %v", v, err)
		}
	}
	if err := e.Delete(12345); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("unknown id: %v", err)
	}
	if err := e.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(5); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("double delete: %v", err)
	}
	// The band maintainer is the only validator of delete ids (the engine no
	// longer plans the batch itself): a rejected batch must map to the
	// engine's error and leave everything — counters, epoch, id allocator —
	// where it was, wherever in the batch the bad op sits.
	ins := func(v float64) UpdateOp { return UpdateOp{Kind: UpdateInsert, Record: []float64{v, v, v}} }
	del := func(id int) UpdateOp { return UpdateOp{Kind: UpdateDelete, ID: id} }
	for _, tc := range []struct {
		name string
		ops  []UpdateOp
		want error
	}{
		{"unknown id", []UpdateOp{del(99999)}, ErrUnknownRecord},
		{"unknown id after valid ops", []UpdateOp{ins(2), del(7), del(99999)}, ErrUnknownRecord},
		{"already deleted id", []UpdateOp{ins(2), del(5)}, ErrUnknownRecord},
		{"duplicate delete", []UpdateOp{del(7), ins(2), del(7)}, ErrUnknownRecord},
		{"own insert deleted twice", []UpdateOp{ins(2), del(100), del(100)}, ErrUnknownRecord},
		{"own insert deleted before it exists", []UpdateOp{del(100), ins(2)}, ErrUnknownRecord},
		{"bad record after valid ops", []UpdateOp{del(7), {Kind: UpdateInsert, Record: []float64{1, 2}}}, ErrBadUpdate},
		{"unknown kind", []UpdateOp{ins(2), {Kind: UpdateKind(7)}}, ErrBadUpdate},
	} {
		before := e.Stats()
		if _, err := e.ApplyBatch(tc.ops); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if after := e.Stats(); after != before {
			t.Errorf("%s: rejected batch changed the engine:\nbefore %+v\nafter  %+v", tc.name, before, after)
		}
	}
	// Deleting an id inserted earlier in the same batch is legal: the pair
	// coalesces, the id is consumed, nothing else moves.
	before := e.Stats()
	bres, err := e.ApplyBatch([]UpdateOp{ins(0.5), del(100)})
	if err != nil {
		t.Fatalf("insert-then-delete batch: %v", err)
	}
	if bres.IDs[0] != 100 || bres.IDs[1] != 100 {
		t.Errorf("batch ids = %v, want [100 100]", bres.IDs)
	}
	after := e.Stats()
	if bres.Live != before.Live || bres.Epoch != before.Epoch || after.CoalescedOps != before.CoalescedOps+2 || after.Inserts != before.Inserts {
		t.Errorf("coalesced pair: result %+v, stats %+v -> %+v", bres, before, after)
	}
	if id, err := e.Insert([]float64{0.1, 0.1, 0.1}); err != nil || id != 101 {
		t.Errorf("insert after a coalesced pair: id %d, err %v, want 101 (the pair consumed 100)", id, err)
	}
}

// TestEnginePreciseInvalidation is the cache-invalidation regression test:
// an update that cannot affect a cached region at its depth must leave the
// entry resident (and still correct), while an affecting update must evict
// it. The dataset is a hand-built dominance chain so each case is provable:
// a ≻ b ≻ c ≻ the bulk, and the probe record x sits below a, b, c on every
// weight vector of the region but is classically dominated by only a and b.
func TestEnginePreciseInvalidation(t *testing.T) { overBands(t, testEnginePreciseInvalidation) }

func testEnginePreciseInvalidation(t *testing.T, parts int) {
	recs := [][]float64{
		{1.0, 1.0, 1.0},    // 0: a — top everywhere
		{0.9, 0.9, 0.9},    // 1: b
		{0.8, 0.8, 0.8},    // 2: c
		{0.1, 0.1, 0.1},    // 3
		{0.12, 0.08, 0.1},  // 4
		{0.08, 0.12, 0.09}, // 5
	}
	e := buildEngine(t, parts, recs, Config{MaxK: 4, CacheEntries: 16})
	ctx := context.Background()
	r := box(t, []float64{0.3, 0.3}, []float64{0.35, 0.35})

	query := func(k int) *Result {
		res, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: r})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first2 := query(2)
	first4 := query(4)

	// x is classically dominated only by a and b (0.85 > 0.8 in dim 0), so
	// it enters the MaxK=4 band; but throughout R its score stays below a,
	// b, AND c, so at depth 2 it is r-dominated 3 ≥ 2 times: the k=2 entry
	// cannot be affected. At depth 4 its 3 r-dominators leave a slot open,
	// so the k=4 entry must go.
	xid, err := e.Insert([]float64{0.85, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d after shielded insert, want 1 (only k=4)", st.Invalidations)
	}
	again2 := query(2)
	if !again2.CacheHit {
		t.Error("k=2 entry was evicted by an update that cannot affect it")
	}
	if fmt.Sprint(again2.IDs) != fmt.Sprint(first2.IDs) {
		t.Errorf("surviving k=2 entry changed: %v != %v", again2.IDs, first2.IDs)
	}
	again4 := query(4)
	if again4.CacheHit {
		t.Error("k=4 entry survived an affecting insert")
	}
	if fmt.Sprint(again4.IDs) == fmt.Sprint(first4.IDs) {
		t.Errorf("k=4 answer unchanged by x: %v", again4.IDs)
	}

	// Verify the surviving entry is actually still exact against a fresh
	// static computation over the updated logical dataset.
	liveRecs := append(append([][]float64{}, recs...), []float64{0.85, 0.5, 0.5})
	liveTree, err := rtree.BulkLoad(liveRecs, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.RSA(liveTree, r, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(want)
	if fmt.Sprint(again2.IDs) != fmt.Sprint(want) {
		t.Errorf("surviving k=2 entry %v != static recomputation %v", again2.IDs, want)
	}

	// Deleting x mirrors the insert: shielded at k=2, affecting at k=4.
	query(4) // repopulate the k=4 entry
	if err := e.Delete(xid); err != nil {
		t.Fatal(err)
	}
	if res := query(2); !res.CacheHit {
		t.Error("k=2 entry evicted by a shielded delete")
	}
	if res := query(4); res.CacheHit {
		t.Error("k=4 entry survived an affecting delete")
	}

	// An unshielded update — a new global maximum — evicts everything.
	if _, err := e.Insert([]float64{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if res := query(2); res.CacheHit {
		t.Error("k=2 entry survived a dominating insert")
	}

	// A record that never reaches the band triggers no probe at all: the
	// cache (and the epoch) stay put. (A part of a partitioned band holds too
	// few of these eight records to keep it out of that part's band, so there
	// the probe runs — and certifies the same outcome for the cache.)
	stBefore := e.Stats()
	if _, err := e.Insert([]float64{0.01, 0.01, 0.01}); err != nil {
		t.Fatal(err)
	}
	stAfter := e.Stats()
	if parts == 1 && stAfter.Epoch != stBefore.Epoch {
		t.Error("sub-band insert advanced the epoch")
	}
	if stAfter.CacheEntries != stBefore.CacheEntries {
		t.Error("sub-band insert disturbed the cache")
	}
	if res := query(2); !res.CacheHit {
		t.Error("k=2 entry missing after sub-band insert")
	}
}

// TestCheckRecord is the table for the one record-validity rule shared by
// dataset construction and the update path.
func TestCheckRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  []float64
		ok   bool
	}{
		{"finite", []float64{0.1, -2, 3e300}, true},
		{"short", []float64{1, 2}, false},
		{"long", []float64{1, 2, 3, 4}, false},
		{"empty", nil, false},
		{"NaN", []float64{1, math.NaN(), 3}, false},
		{"+Inf", []float64{math.Inf(1), 2, 3}, false},
		{"-Inf", []float64{1, 2, math.Inf(-1)}, false},
	} {
		if err := CheckRecord(tc.rec, 3); (err == nil) != tc.ok {
			t.Errorf("%s: CheckRecord = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// countingBand counts the band snapshots the engine asks for.
type countingBand struct {
	*skyband.Dynamic
	snapshots int
}

func (c *countingBand) Band() ([]int, [][]float64, []int) {
	c.snapshots++
	return c.Dynamic.Band()
}

// TestBeginSnapshotsOnlyChangedBand pins the begin stage's snapshot rule: the
// O(B log B) band materialisation runs once per batch that changed the band
// and never for one that did not — deep churn, however large the batch and
// with the cache on, asks for no snapshot and publishes no epoch.
func TestBeginSnapshotsOnlyChangedBand(t *testing.T) {
	td := buildData(t, 400, 3, 29)
	cfg, err := Config{MaxK: 3, CacheEntries: 8, Workers: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := skyband.NewDynamic(td.recs, cfg.MaxK)
	if err != nil {
		t.Fatal(err)
	}
	// Deep records: outside the band and the fence, so deleting them and
	// inserting records below them cannot touch the band.
	var deep []int
	for id := range td.recs {
		if !dyn.Tracked(id) {
			deep = append(deep, id)
		}
	}
	cb := &countingBand{Dynamic: dyn}
	e := newEngine(cfg, exec.NewPool(cfg.Workers, cfg.MaxQueued), cb, 3, 0, 0)
	if _, err := e.Do(context.Background(), Request{Variant: UTK1, K: 2, Region: box(t, []float64{0.3, 0.3}, []float64{0.35, 0.35})}); err != nil {
		t.Fatal(err)
	}
	cb.snapshots = 0 // construction took one

	var ops []UpdateOp
	for _, id := range deep[:8] {
		ops = append(ops, UpdateOp{Kind: UpdateDelete, ID: id}, UpdateOp{Kind: UpdateInsert, Record: []float64{1e-3, 1e-3, 1e-3}})
	}
	res, err := e.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if cb.snapshots != 0 || res.Epoch != 0 || e.Epoch() != 0 {
		t.Fatalf("out-of-band batch: %d band snapshots, epoch %d (published %d); want none and epoch 0", cb.snapshots, res.Epoch, e.Epoch())
	}
	if st := e.Stats(); st.CacheEntries != 1 || st.ProbeBatches != 0 {
		t.Fatalf("out-of-band batch touched the cache: %+v", st)
	}

	res, err = e.ApplyBatch([]UpdateOp{{Kind: UpdateInsert, Record: []float64{2, 2, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if cb.snapshots != 1 || res.Epoch != 1 || e.Epoch() != 1 {
		t.Fatalf("in-band insert: %d band snapshots, epoch %d (published %d); want exactly one and epoch 1", cb.snapshots, res.Epoch, e.Epoch())
	}
}
