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
	"time"

	"repro/internal/geom"
)

// TestTwoStageCommit pins the pipelined contract: when ApplyBatchPipelined
// returns, the batch's ids are final and nothing else has happened — the
// band has not applied it and the published epoch is unchanged; between
// begin and commit, queries over a region the batch changes are answered
// from the pre-batch state — cached entries still hit, fresh computations
// run on the old index and are not cached — and after commit the result
// carries the epoch commit published and the post-batch answer is served.
func TestTwoStageCommit(t *testing.T) { onePart(t, testTwoStageCommit) }

func testTwoStageCommit(t *testing.T) {
	td := buildData(t, 400, 3, 71)
	e := buildEngine(t, td.recs, Config{MaxK: 6, CacheEntries: 16})
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
	if !slices.Equal(res.IDs, []int{len(td.recs)}) || e.Epoch() != epoch0 || e.band.Has(id) || e.band.Len() != len(td.recs) {
		t.Fatalf("begin stage: ids %v, published epoch %d, band holds the insert %v and %d records; want ids [%d], epoch %d, the band untouched at %d",
			res.IDs, e.Epoch(), e.band.Has(id), e.band.Len(), len(td.recs), epoch0, len(td.recs))
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
	if res.Epoch != epoch0+1 || e.Epoch() != res.Epoch || res.Live != len(td.recs)+1 {
		t.Fatalf("after commit: result epoch %d, published %d, live %d; want both epochs %d and %d live", res.Epoch, e.Epoch(), res.Live, epoch0+1, len(td.recs)+1)
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

// TestOneBatchInFlight pins that an engine has one batch open at a time: a
// second begin waits until the first batch has committed, and each batch's
// result carries the epoch it publishes, which Epoch and ExportState then
// report.
func TestOneBatchInFlight(t *testing.T) {
	td := buildData(t, 300, 3, 17)
	e := buildEngine(t, td.recs, Config{MaxK: 4, CacheEntries: 16})
	epoch0 := e.Epoch()
	resA, commitA, err := e.ApplyBatchPipelined([]UpdateOp{{Kind: UpdateInsert, Record: []float64{2, 2, 2}}})
	if err != nil {
		t.Fatal(err)
	}

	type begun struct {
		res    *UpdateResult
		commit func()
		err    error
	}
	bDone := make(chan begun, 1)
	go func() {
		res, commit, err := e.ApplyBatchPipelined([]UpdateOp{{Kind: UpdateInsert, Record: []float64{3, 3, 3}}})
		bDone <- begun{res, commit, err}
	}()
	// B staying blocked has no event to wait on: give it a bounded window
	// in which to (wrongly) return.
	select {
	case <-bDone:
		t.Fatal("batch B began while batch A was still uncommitted")
	case <-time.After(100 * time.Millisecond):
	}

	commitA()
	var b begun
	select {
	case b = <-bDone:
	case <-time.After(10 * time.Second):
		t.Fatal("batch B did not begin after batch A committed")
	}
	if b.err != nil {
		t.Fatal(b.err)
	}
	if resA.Epoch != epoch0+1 || e.Epoch() != resA.Epoch {
		t.Fatalf("after A's commit: A's result epoch %d, published %d, want both %d", resA.Epoch, e.Epoch(), epoch0+1)
	}
	b.commit()
	if b.res.Epoch != resA.Epoch+1 || e.Epoch() != b.res.Epoch {
		t.Fatalf("after B's commit: B's result epoch %d, published %d, want both %d", b.res.Epoch, e.Epoch(), resA.Epoch+1)
	}
	if st := e.ExportState(); st.Epoch != b.res.Epoch {
		t.Fatalf("exported epoch %d, want B's %d", st.Epoch, b.res.Epoch)
	}
}

// TestMultiPartBatchAtomic applies batches whose three inserts jointly
// replace a region's whole top-3, then batches deleting them again, against
// concurrent uncached queriers: every answer must be the pre-batch set or one
// generation's complete triple, never a prefix of a batch. Meant for -race.
func TestMultiPartBatchAtomic(t *testing.T) {
	const n, k = 300, 3
	td := buildData(t, n, 3, 83)
	e := buildEngine(t, td.recs, Config{MaxK: 4, CacheEntries: -1, Workers: 4})
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

// TestMissSharesColumns pins that the one compute serves a fresh and a
// restored engine with the same machinery: a UTK2 miss at k < MaxK filters a
// proper prefix of the band through the epoch's one block layout, and the
// restored engine's first such miss returns exactly the fresh engine's
// candidates and cells.
func TestMissSharesColumns(t *testing.T) {
	td := buildData(t, 3000, 3, 91)
	cfg := Config{MaxK: 8, CacheEntries: -1, Workers: 4}
	ctx := context.Background()
	req := Request{Variant: UTK2, K: 6, Region: box(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})}

	fresh := buildEngine(t, td.recs, cfg)
	restored, err := Restore(fresh.ExportState(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []*Result
	for _, e := range []*Engine{fresh, restored} {
		name := "fresh"
		if e == restored {
			name = "restored"
		}
		ix := e.idx.Load()
		if n := sort.SearchInts(ix.counts, req.K); ix.blocks.Load().SplitCost() == 0 || n == 0 || n >= len(ix.ids) {
			t.Fatalf("%s: the k=%d candidates are not a proper prefix [:%d] of the %d-record band's one unsplit layout (split cost %d)", name, req.K, n, len(ix.ids), ix.blocks.Load().SplitCost())
		}
		res, err := e.compute(ctx, req, ix)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, res)
	}
	if res := first[1]; res.Stats.Candidates != first[0].Stats.Candidates || !reflect.DeepEqual(res.Cells, first[0].Cells) {
		t.Fatalf("restored: first miss (%d candidates, %d cells) differs from the fresh engine's (%d, %d)",
			res.Stats.Candidates, len(res.Cells), first[0].Stats.Candidates, len(first[0].Cells))
	}
}

// TestIndexPrefixIsKSkyband pins the contract every query's filter rests on:
// after each batch of random churn over grid data (exact ties and
// duplicates), the published index is the naive O(n²) MaxK-skyband of the
// live records with the naive counts, count-major with ties by id — so for
// every k ≤ MaxK the prefix a depth-k query filters (the entries with count
// < k) is the naive k-skyband.
func TestIndexPrefixIsKSkyband(t *testing.T) { onePart(t, testIndexPrefixIsKSkyband) }

func testIndexPrefixIsKSkyband(t *testing.T) {
	const maxK, dim = 6, 3
	rng := rand.New(rand.NewSource(41))
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
	e := buildEngine(t, recs, Config{MaxK: maxK, CacheEntries: -1})
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
