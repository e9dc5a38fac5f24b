package engine

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestTwoStageCommit pins the pipelined contract on every band maintainer:
// between ApplyBatchPipelined returning and commit running, queries over a
// region the batch changes are answered from the pre-batch state — cached
// entries still hit, fresh computations run on the old index and are not
// cached — and after commit the post-batch answer is served. (A sharded
// engine used to apply everything in the begin stage.)
func TestTwoStageCommit(t *testing.T) { overBands(t, testTwoStageCommit) }

func testTwoStageCommit(t *testing.T, parts int) {
	td := buildData(t, 400, 3, 71)
	e := buildEngine(t, parts, td.recs, Config{MaxK: 6, CacheEntries: 16})
	ctx := context.Background()
	r := box(t, []float64{0.3, 0.3}, []float64{0.35, 0.35})
	cached := Request{Variant: UTK1, K: 3, Region: r}
	fresh := Request{Variant: UTK1, K: 4, Region: r}

	pre, err := e.Do(ctx, cached)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := e.Epoch()
	res, commit, err := e.ApplyBatchPipelined([]UpdateOp{{Kind: UpdateInsert, Record: []float64{2, 2, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	id := res.IDs[0]
	if res.Epoch != epoch0+1 || e.Epoch() != epoch0 {
		t.Fatalf("begin stage: reserved epoch %d, published %d, want %d reserved and %d still published", res.Epoch, e.Epoch(), epoch0+1, epoch0)
	}

	mid, err := e.Do(ctx, cached)
	if err != nil {
		t.Fatal(err)
	}
	if !mid.CacheHit || !reflect.DeepEqual(mid.IDs, pre.IDs) {
		t.Fatalf("before commit: cached query hit=%v ids %v, want a hit on the pre-batch %v", mid.CacheHit, mid.IDs, pre.IDs)
	}
	midFresh, err := e.Do(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if midFresh.CacheHit || midFresh.Epoch != epoch0 || slices.Contains(midFresh.IDs, id) {
		t.Fatalf("before commit: fresh query hit=%v epoch %d ids %v, want a pre-batch computation without %d", midFresh.CacheHit, midFresh.Epoch, midFresh.IDs, id)
	}

	commit()
	if e.Epoch() != res.Epoch {
		t.Fatalf("after commit: epoch %d, want %d", e.Epoch(), res.Epoch)
	}
	for _, req := range []Request{cached, fresh} {
		post, err := e.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if post.CacheHit || !slices.Contains(post.IDs, id) {
			t.Fatalf("after commit k=%d: hit=%v ids %v, want a fresh answer containing %d", req.K, post.CacheHit, post.IDs, id)
		}
	}
}

// TestMultiPartBatchAtomic applies batches whose three inserts land on three
// different parts and jointly replace a region's whole top-3, then batches
// deleting them again, against concurrent uncached queriers: every answer
// must be the pre-batch set or one generation's complete triple, never a
// prefix of the per-part sub-batches. Meant for -race.
func TestMultiPartBatchAtomic(t *testing.T) {
	const n, k = 300, 3
	td := buildData(t, n, 3, 83)
	e := buildEngine(t, 3, td.recs, Config{MaxK: 4, Workers: 4})
	ctx := context.Background()
	req := Request{Variant: UTK1, K: k, Region: box(t, []float64{0.3, 0.3}, []float64{0.35, 0.35})}
	preRes, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	pre := fmt.Sprint(preRes.IDs)

	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := e.Do(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				got := fmt.Sprint(res.IDs)
				if got == pre {
					continue
				}
				a := res.IDs[0]
				if len(res.IDs) != 3 || a < n || (a-n)%3 != 0 || res.IDs[1] != a+1 || res.IDs[2] != a+2 {
					t.Errorf("observed a half-applied batch: %v (pre-batch answer %s)", res.IDs, pre)
					return
				}
			}
		}()
	}
	for g := 0; g < rounds; g++ {
		ins, err := e.ApplyBatch([]UpdateOp{
			{Kind: UpdateInsert, Record: []float64{2, 2.1, 2.2}},
			{Kind: UpdateInsert, Record: []float64{2.1, 2.2, 2}},
			{Kind: UpdateInsert, Record: []float64{2.2, 2, 2.1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{n + 3*g, n + 3*g + 1, n + 3*g + 2}; !reflect.DeepEqual(ins.IDs, want) {
			t.Fatalf("round %d assigned ids %v, want %v", g, ins.IDs, want)
		}
		parts := e.ExportState().Parts
		for p, l2g := range parts.LocalToGlobal {
			if last := l2g[len(l2g)-1]; last < n+3*g {
				t.Fatalf("round %d: part %d received none of the three inserts", g, p)
			}
		}
		if _, err := e.ApplyBatch([]UpdateOp{
			{Kind: UpdateDelete, ID: ins.IDs[0]},
			{Kind: UpdateDelete, ID: ins.IDs[1]},
			{Kind: UpdateDelete, ID: ins.IDs[2]},
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestParallelMissSharesSplitAndColumns pins that the one compute serves
// every way an engine can come to exist — fresh or restored, single or
// partitioned — with the same machinery: a parallel UTK2 miss at k < MaxK
// filters a proper prefix of the band through the epoch's one float32 layout
// and consults and calibrates the engine's split model, and over the same
// records a partitioned engine's first such miss returns exactly the single
// engine's candidates and cells. (Restore used to
// leave the split model nil, and the sharded engine had no model or columns
// at all.)
func TestParallelMissSharesSplitAndColumns(t *testing.T) {
	td := buildData(t, 3000, 3, 91)
	cfg := Config{MaxK: 8, Workers: 4}
	ctx := context.Background()
	req := Request{Variant: UTK2, K: 6, Region: box(t, []float64{0.2, 0.2}, []float64{0.4, 0.4}), Opts: core.Options{Workers: 4}}

	var first []*Result
	for _, parts := range bandParts {
		fresh := buildEngine(t, parts, td.recs, cfg)
		restored, err := Restore(fresh.ExportState(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]*Engine{"fresh": fresh, "restored": restored} {
			name = fmt.Sprintf("parts=%d/%s", parts, name)
			ix := e.idx.Load()
			if n := sort.SearchInts(ix.counts, req.K); ix.cols == nil || n == 0 || n >= len(ix.ids) {
				t.Fatalf("%s: the k=%d candidates are not a proper prefix [:%d] of the %d-record band's one layout (layout %v)", name, req.K, n, len(ix.ids), ix.cols != nil)
			}
			if e.split == nil || e.split.Calibrated() {
				t.Fatalf("%s: split model %v before any query, want present and uncalibrated", name, e.split)
			}
			res, err := e.compute(ctx, req, ix, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.EffectiveWorkers != 4 {
				t.Fatalf("%s: effective workers %d, want 4", name, res.Stats.EffectiveWorkers)
			}
			first = append(first, res)
			for i := 0; i < 4 && !e.split.Calibrated(); i++ {
				if _, err := e.compute(ctx, req, ix, false); err != nil {
					t.Fatal(err)
				}
			}
			if !e.split.Calibrated() {
				t.Fatalf("%s: parallel misses did not calibrate the engine's split model", name)
			}
		}
	}
	for i, res := range first[1:] {
		if res.Stats.Candidates != first[0].Stats.Candidates || !reflect.DeepEqual(res.Cells, first[0].Cells) {
			t.Fatalf("engine %d: first parallel miss (%d candidates, %d cells) differs from the single fresh engine's (%d, %d)",
				i+1, res.Stats.Candidates, len(res.Cells), first[0].Stats.Candidates, len(first[0].Cells))
		}
	}
}

// TestIndexPrefixIsKSkyband pins the contract every query's filter rests on:
// after each batch of random churn over grid data (exact ties and
// duplicates), the published index is the naive O(n²) MaxK-skyband of the
// live records with the naive counts, count-major with ties by id — so for
// every k ≤ MaxK the prefix a depth-k query filters (the entries with count
// < k) is the naive k-skyband — on a single band and on a partitioned one.
func TestIndexPrefixIsKSkyband(t *testing.T) { overBands(t, testIndexPrefixIsKSkyband) }

func testIndexPrefixIsKSkyband(t *testing.T, parts int) {
	const maxK, dim = 6, 3
	rng := rand.New(rand.NewSource(int64(40 + parts)))
	grid := func() []float64 {
		rec := make([]float64, dim)
		for j := range rec {
			rec[j] = float64(rng.Intn(9)) / 8
		}
		return rec
	}
	live := map[int][]float64{}
	recs := make([][]float64, 240)
	for i := range recs {
		if i < 200 {
			recs[i] = grid()
		} else {
			recs[i] = slices.Clone(recs[rng.Intn(200)]) // an exact duplicate
		}
		live[i] = recs[i]
	}
	e := buildEngine(t, parts, recs, Config{MaxK: maxK})
	for step := 0; step < 60; step++ {
		if step > 0 {
			ix := e.idx.Load()
			var ops []UpdateOp
			deleted := map[int]bool{}
			for j := 0; j < 1+rng.Intn(6); j++ {
				switch rng.Intn(3) {
				case 0:
					ops = append(ops, UpdateOp{Kind: UpdateInsert, Record: grid()})
				default: // delete, mostly from the band
					id := ix.ids[rng.Intn(len(ix.ids))]
					if rng.Intn(3) == 0 {
						all := slices.Sorted(maps.Keys(live))
						id = all[rng.Intn(len(all))]
					}
					if !deleted[id] {
						deleted[id] = true
						ops = append(ops, UpdateOp{Kind: UpdateDelete, ID: id})
					}
				}
			}
			res, err := e.ApplyBatch(ops)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for i, op := range ops {
				if op.Kind == UpdateInsert {
					live[res.IDs[i]] = op.Record
				} else {
					delete(live, op.ID)
				}
			}
		}

		type counted struct{ id, count int }
		var want []counted
		for id, q := range live {
			c := 0
			for _, p := range live {
				if geom.Dominates(p, q) {
					c++
				}
			}
			if c < maxK {
				want = append(want, counted{id, c})
			}
		}
		slices.SortFunc(want, func(a, b counted) int { return cmp.Or(cmp.Compare(a.count, b.count), cmp.Compare(a.id, b.id)) })
		ix := e.idx.Load()
		if len(ix.ids) != len(want) || len(ix.recs) != len(want) || len(ix.counts) != len(want) {
			t.Fatalf("step %d: index holds %d ids, %d records and %d counts, the naive %d-skyband %d", step, len(ix.ids), len(ix.recs), len(ix.counts), maxK, len(want))
		}
		for i, w := range want {
			if ix.ids[i] != w.id || ix.counts[i] != w.count || !slices.Equal(ix.recs[i], live[w.id]) {
				t.Fatalf("step %d: index entry %d is (id %d, count %d), the naive one (id %d, count %d)", step, i, ix.ids[i], ix.counts[i], w.id, w.count)
			}
		}
	}
}
