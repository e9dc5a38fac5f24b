package skyband

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// bruteBand computes the exact k-skyband ids of a live-record map by the
// O(n²) definition — the reference the dynamic structure is checked against.
func bruteBand(live map[int][]float64, k int) []int {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []int
	for _, id := range ids {
		cnt := 0
		for _, other := range ids {
			if other != id && geom.Dominates(live[other], live[id]) {
				cnt++
				if cnt >= k {
					break
				}
			}
		}
		if cnt < k {
			out = append(out, id)
		}
	}
	return out
}

func checkBand(t *testing.T, d *Dynamic, live map[int][]float64, k int, ctxt string) {
	t.Helper()
	want := bruteBand(live, k)
	got, recs := d.Band()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: band %v != brute force %v", ctxt, got, want)
	}
	for i, id := range got {
		if fmt.Sprint(recs[i]) != fmt.Sprint(live[id]) {
			t.Fatalf("%s: band record %d does not match live record", ctxt, id)
		}
	}
}

func TestDynamicMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		d0 := 2 + rng.Intn(3)
		n := 20 + rng.Intn(60)
		k := 1 + rng.Intn(5)
		shadow := rng.Intn(2 * k) // includes shadowDepth 0
		recs := dataset.Synthetic(dataset.IND, n, d0, int64(trial+1))
		dyn, err := NewDynamic(recs, nil, k, shadow)
		if err != nil {
			t.Fatal(err)
		}
		live := map[int][]float64{}
		ids := make([]int, 0, n)
		for id, rec := range recs {
			live[id] = rec
			ids = append(ids, id)
		}
		checkBand(t, dyn, live, k, fmt.Sprintf("trial %d construction", trial))

		ops := 120
		if testing.Short() {
			ops = 40
		}
		for op := 0; op < ops; op++ {
			if len(ids) == 0 || rng.Intn(2) == 0 {
				rec := make([]float64, d0)
				for j := range rec {
					rec[j] = rng.Float64()
				}
				// Occasionally duplicate an existing record to stress ties.
				if len(ids) > 0 && rng.Intn(5) == 0 {
					copy(rec, live[ids[rng.Intn(len(ids))]])
				}
				id, _ := dyn.Insert(rec)
				live[id] = append([]float64(nil), rec...)
				ids = append(ids, id)
			} else {
				pick := rng.Intn(len(ids))
				id := ids[pick]
				ids[pick] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if _, _, ok := dyn.Delete(id); !ok {
					t.Fatalf("trial %d op %d: delete of live id %d refused", trial, op, id)
				}
				delete(live, id)
			}
			checkBand(t, dyn, live, k, fmt.Sprintf("trial %d (k=%d shadow=%d) op %d", trial, k, shadow, op))
		}
		st := dyn.Stats()
		if st.Live != len(live) {
			t.Fatalf("trial %d: live %d != %d", trial, st.Live, len(live))
		}
		if st.Coverage < k || st.Coverage > k+shadow {
			t.Fatalf("trial %d: coverage %d outside [%d, %d]", trial, st.Coverage, k, k+shadow)
		}
		if gotIDs, _ := dyn.Band(); len(gotIDs) != st.SupersetSize {
			t.Fatalf("trial %d: Band() length %d != stats band %d", trial, len(gotIDs), st.SupersetSize)
		}
	}
}

// TestDynamicSupersetConstruction verifies that seeding construction with a
// tree-computed skyband superset produces the same structure as the scan.
func TestDynamicSupersetConstruction(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 500, 3, 7)
	tree, err := rtree.BulkLoad(recs, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	const k, shadow = 5, 5
	sup := KSkyband(tree, k+shadow)
	seeded, err := NewDynamic(recs, sup, k, shadow)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := NewDynamic(recs, nil, k, shadow)
	if err != nil {
		t.Fatal(err)
	}
	sIDs, _ := seeded.Band()
	cIDs, _ := scanned.Band()
	if fmt.Sprint(sIDs) != fmt.Sprint(cIDs) {
		t.Fatalf("seeded band %v != scanned band %v", sIDs, cIDs)
	}
	want := KSkyband(tree, k)
	sort.Ints(want)
	if fmt.Sprint(sIDs) != fmt.Sprint(want) {
		t.Fatalf("dynamic band %v != static KSkyband %v", sIDs, want)
	}
	if st := seeded.Stats(); st.ShadowSize == 0 {
		t.Error("expected a non-empty shadow band on a 500-point dataset")
	}
}

// TestDynamicShadowExhaustion drives deletes into the skyline until the
// shadow runs dry and verifies the rebuild fallback restores coverage.
func TestDynamicShadowExhaustion(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 300, 3, 9)
	const k, shadow = 3, 2
	dyn, err := NewDynamic(recs, nil, k, shadow)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int][]float64{}
	for id, rec := range recs {
		live[id] = rec
	}
	// Repeatedly delete the first band member: each such delete costs one
	// coverage level, so a rebuild must fire within shadow+1 deletions.
	deleted := 0
	for dyn.Stats().Rebuilds == 0 {
		ids, _ := dyn.Band()
		if len(ids) == 0 {
			t.Fatal("band drained before any rebuild")
		}
		if _, _, ok := dyn.Delete(ids[0]); !ok {
			t.Fatal("band member not live")
		}
		delete(live, ids[0])
		deleted++
		checkBand(t, dyn, live, k, fmt.Sprintf("delete %d", deleted))
		if deleted > shadow+1 {
			t.Fatalf("no rebuild after %d skyline deletions (shadow depth %d)", deleted, shadow)
		}
	}
	if cov := dyn.Stats().Coverage; cov != k+shadow {
		t.Fatalf("coverage %d after rebuild, want %d", cov, k+shadow)
	}
	// The structure keeps answering exactly after the fallback.
	id, _ := dyn.Insert([]float64{2, 2, 2})
	live[id] = []float64{2, 2, 2}
	checkBand(t, dyn, live, k, "post-rebuild insert")
}

func TestDynamicValidation(t *testing.T) {
	recs := [][]float64{{1, 2}, {2, 1}}
	if _, err := NewDynamic(recs, nil, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewDynamic(recs, nil, 1, -1); err == nil {
		t.Error("negative shadow depth accepted")
	}
	dyn, err := NewDynamic(recs, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := dyn.Delete(99); ok {
		t.Error("delete of unknown id succeeded")
	}
	if id, _ := dyn.Insert([]float64{3, 3}); id != 2 {
		t.Errorf("first insert got id %d, want 2", id)
	}
	if dyn.Len() != 3 || !dyn.Has(2) || dyn.Has(99) {
		t.Error("liveness bookkeeping wrong after insert")
	}
}
