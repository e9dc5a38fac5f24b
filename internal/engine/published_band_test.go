package engine

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/skyband"
)

// TestPublishedBandMatchesRebuild drives an update_mix-shaped stream — each
// batch 16 deletes then 16 inserts — through ApplyBatch and requires the
// published index after every batch to be the band a from-scratch count
// gives over the live records: the same ids, records and counts in the same
// count-major order. The stream also coalesces insert→delete pairs, deletes
// a fence entry covering many records, and inserts a record dominating the
// whole band, then deletes it.
func TestPublishedBandMatchesRebuild(t *testing.T) {
	const dim, maxK = 4, 10
	recs := dataset.Synthetic(dataset.IND, 2000, dim, 5)
	// Planted outside the unit cube: maxK mutually incomparable pillars, a
	// fence entry they all dominate (count maxK), and 40 records it
	// dominates, each covered by it alone.
	for j := range maxK {
		recs = append(recs, []float64{3 + 0.01*float64(j), 3 - 0.01*float64(j), -0.5, -0.5})
	}
	fenceID := len(recs)
	recs = append(recs, []float64{2, 2, -1, -1})
	for i := range 40 {
		x := 0.001 * float64(i)
		recs = append(recs, []float64{1.9 - x, 1.9 - 2*x, -1 - x, -1.5})
	}
	planted := len(recs) - 2000

	e, err := New(recs, Config{MaxK: maxK, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !e.band.Tracked(fenceID) || e.band.InBand(fenceID) {
		t.Fatalf("planted record %d is not a fence entry", fenceID)
	}
	live := map[int][]float64{}
	var churn []int // ids the random deletes draw from: everything but the planted records
	for id, rec := range recs {
		live[id] = rec
		if id < len(recs)-planted {
			churn = append(churn, id)
		}
	}
	nextID := len(recs)
	rng := rand.New(rand.NewSource(7))
	record := func() []float64 {
		rec := make([]float64, dim)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		return rec
	}
	dominator, dominatorID := []float64{5, 5, 5, 5}, -1

	check := func(batch int) {
		t.Helper()
		ids := slices.Sorted(maps.Keys(live))
		all := make([][]float64, len(ids))
		for i, id := range ids {
			all[i] = live[id]
		}
		idx, counts := skyband.CountBand(all, maxK)
		wantIDs, wantRecs := make([]int, len(idx)), make([][]float64, len(idx))
		for i, x := range idx {
			wantIDs[i], wantRecs[i] = ids[x], all[x]
		}
		ix := e.idx.Load()
		if !slices.Equal(ix.ids, wantIDs) || !slices.Equal(ix.counts, counts) {
			t.Fatalf("batch %d: published band\n%v %v\nrebuilt band\n%v %v", batch, ix.ids, ix.counts, wantIDs, counts)
		}
		for i := range wantRecs {
			if !slices.Equal(ix.recs[i], wantRecs[i]) {
				t.Fatalf("batch %d: published record of id %d is %v, live record %v", batch, ix.ids[i], ix.recs[i], wantRecs[i])
			}
		}
	}

	check(-1)
	for batch := range 40 {
		var ops []UpdateOp
		for range 16 {
			x := rng.Intn(len(churn))
			ops = append(ops, UpdateOp{Kind: UpdateDelete, ID: churn[x]})
			churn[x] = churn[len(churn)-1]
			churn = churn[:len(churn)-1]
		}
		switch batch {
		case 5:
			ops = append(ops, UpdateOp{Kind: UpdateDelete, ID: fenceID})
		case 10:
			dominatorID = nextID
			ops = append(ops, UpdateOp{Kind: UpdateInsert, Record: dominator})
		case 11:
			ops = append(ops, UpdateOp{Kind: UpdateDelete, ID: dominatorID})
		}
		for i := range 16 {
			ops = append(ops, UpdateOp{Kind: UpdateInsert, Record: record()})
			if batch%3 == 0 && i%4 == 0 { // coalesce: delete the insert just queued
				ops = append(ops, UpdateOp{Kind: UpdateDelete, ID: nextID + countInserts(ops) - 1})
			}
		}
		res, err := e.ApplyBatch(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, op := range ops {
			switch op.Kind {
			case UpdateInsert:
				live[res.IDs[i]] = op.Record
				if res.IDs[i] != dominatorID {
					churn = append(churn, res.IDs[i])
				}
			case UpdateDelete:
				if _, ok := live[op.ID]; !ok {
					t.Fatalf("batch %d: deleted id %d was not live", batch, op.ID)
				}
				delete(live, op.ID)
				if i := slices.Index(churn, op.ID); i >= 0 {
					churn = slices.Delete(churn, i, i+1)
				}
			}
		}
		nextID += countInserts(ops)
		if batch == 10 && !slices.Contains(e.idx.Load().ids, dominatorID) {
			t.Fatalf("batch 10: the dominator %d did not join the band", dominatorID)
		}
		check(batch)
	}
}

func countInserts(ops []UpdateOp) int {
	n := 0
	for _, op := range ops {
		if op.Kind == UpdateInsert {
			n++
		}
	}
	return n
}
