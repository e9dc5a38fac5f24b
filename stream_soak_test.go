package utk

// Sustained-update soak: bursts of ApplyBatch churn (including coalescible
// insert→delete pairs) run against concurrent UTK1/UTK2 queriers, and after
// every burst the engine's maintained band is differentially checked against
// a static engine rebuilt from the current live records — the invariant that
// makes incremental maintenance "exact" rather than approximate. Runs on an
// engine built over the records and on one reopened from a legacy
// three-part snapshot, and is part of the CI -race suites.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func TestStreamSoak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts int
	}{{"single", 1}, {"shards=3", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			streamSoak(t, tc.parts)
		})
	}
}

// streamSoak soaks an engine over a fresh dataset; with parts > 1 the engine
// is reopened from a legacy snapshot of that many parts (see partsEngine).
func streamSoak(t *testing.T, parts int) {
	const (
		n, dim, k      = 3000, 3, 8
		batchSize      = 40
		churnPairs     = 5
		batchesPerRoll = 4
	)
	bursts := 6
	if testing.Short() {
		bursts = 3
	}

	data := dataset.Synthetic(dataset.IND, n, dim, 3)
	ds, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	e := partsEngine(t, ds, parts, EngineConfig{MaxK: k})
	boxes := dataset.RandomBoxes(dim-1, 0.05, 6, 9)
	regions := make([]*Region, len(boxes))
	for i, b := range boxes {
		lo, hi := b.Bounds()
		if regions[i], err = NewBoxRegion(lo, hi); err != nil {
			t.Fatal(err)
		}
	}

	// Queriers hammer the engine for the whole soak, including while the
	// post-burst verification reads State() — the concurrency -race vets.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 21))
			for i := 0; ctx.Err() == nil; i++ {
				q := Query{K: 1 + rng.Intn(k), Region: regions[rng.Intn(len(regions))]}
				var err error
				if i%4 == 3 {
					_, err = e.UTK2(ctx, q)
				} else {
					_, err = e.UTK1(ctx, q)
				}
				if err != nil && ctx.Err() == nil && !errors.Is(err, ErrSaturated) {
					t.Errorf("concurrent query failed: %v", err)
					return
				}
			}
		}(q)
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	rng := rand.New(rand.NewSource(17))
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	nextID := n
	newRec := func() []float64 {
		rec := make([]float64, dim)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		if rng.Intn(4) == 0 {
			for j := range rec {
				rec[j] = 0.85 + 0.15*rng.Float64()
			}
		}
		return rec
	}

	for burst := 0; burst < bursts; burst++ {
		for b := 0; b < batchesPerRoll; b++ {
			plain := batchSize - 2*churnPairs
			nIns := plain / 2
			nDel := plain - nIns
			ops := make([]UpdateOp, 0, batchSize)
			for i := 0; i < nDel && len(live) > 4*k; i++ {
				j := rng.Intn(len(live))
				ops = append(ops, UpdateOp{Kind: UpdateDelete, ID: live[j]})
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			insStart := len(ops)
			for i := 0; i < nIns; i++ {
				ops = append(ops, UpdateOp{Kind: UpdateInsert, Record: newRec()})
			}
			predicted := nextID + nIns
			for p := 0; p < churnPairs; p++ {
				ops = append(ops,
					UpdateOp{Kind: UpdateInsert, Record: newRec()},
					UpdateOp{Kind: UpdateDelete, ID: predicted})
				predicted++
			}
			res, err := e.ApplyBatch(ops)
			if err != nil {
				t.Fatalf("burst %d batch %d: %v", burst, b, err)
			}
			for i := insStart; i < insStart+nIns; i++ {
				live = append(live, res.IDs[i])
			}
			for _, id := range res.IDs {
				if id >= nextID {
					nextID = id + 1
				}
			}
		}
		verifySoakBurst(t, e, k, regions, len(live))
		if t.Failed() {
			t.Fatalf("burst %d: differential check failed", burst)
		}
	}
	if st := e.Stats(); st.CoalescedOps == 0 {
		t.Fatal("soak applied churn pairs but nothing coalesced")
	}
}

// verifySoakBurst rebuilds a static dataset from the engine's current live
// records and checks (1) the maintained band against the statically computed
// k-skyband — exact set equality — and (2) UTK1 answers against the static
// Dataset on every soak region.
func verifySoakBurst(t *testing.T, e *Engine, k int, regions []*Region, wantLive int) {
	t.Helper()
	st := e.State()
	liveIDs, liveRecs := st.Dyn.LiveIDs, st.Dyn.LiveRecs
	dynBand := map[int]bool{}
	ids, counts := e.e.Band()
	for i, id := range ids {
		if counts[i] < k {
			dynBand[id] = true
		}
	}
	if len(liveIDs) != wantLive {
		t.Fatalf("engine live count %d != tracked %d", len(liveIDs), wantLive)
	}

	static, err := NewDataset(liveRecs)
	if err != nil {
		t.Fatal(err)
	}
	sky, err := static.KSkyband(k)
	if err != nil {
		t.Fatal(err)
	}
	staticBand := map[int]bool{}
	for _, pos := range sky {
		staticBand[liveIDs[pos]] = true
	}
	for id := range staticBand {
		if !dynBand[id] {
			t.Fatalf("static band member %d missing from maintained band", id)
		}
	}
	for id := range dynBand {
		if !staticBand[id] {
			t.Fatalf("maintained band retains %d beyond the static band", id)
		}
	}

	// Query differential: the serving answer over the maintained superset
	// must equal the from-scratch answer over the rebuilt dataset.
	ctx := context.Background()
	for _, r := range regions {
		q := Query{K: k, Region: r}
		got, err := e.UTK1(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := static.UTK1(q)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := map[int]bool{}
		for _, pos := range want.Records {
			wantSet[liveIDs[pos]] = true
		}
		if len(got.Records) != len(wantSet) {
			var extra, missing []int
			gotSet := map[int]bool{}
			for _, id := range got.Records {
				gotSet[id] = true
				if !wantSet[id] {
					extra = append(extra, id)
				}
			}
			for id := range wantSet {
				if !gotSet[id] {
					missing = append(missing, id)
				}
			}
			again, aerr := e.UTK1(ctx, Query{K: k, Region: r})
			t.Fatalf("UTK1 answer size %d != static %d (cacheHit=%v extra=%v missing=%v; requery size=%d hit=%v err=%v)",
				len(got.Records), len(wantSet), got.CacheHit, extra, missing, len(again.Records), again.CacheHit, aerr)
		}
		for _, id := range got.Records {
			if !wantSet[id] {
				t.Fatalf("UTK1 answer contains %d, static answer does not", id)
			}
		}
	}
}
