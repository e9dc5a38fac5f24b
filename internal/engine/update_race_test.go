package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
)

// TestEngineConcurrentUpdates hammers one engine with concurrent inserts,
// deletes, and UTK1/UTK2 queries. Run with -race it is the data-race check
// for the update path; in any mode it verifies epoch consistency: every
// result is stamped with the epoch it was computed against, and must equal
// the reference answer recorded for that epoch — a torn superset (a query
// observing half an update) would produce an answer matching no epoch.
func TestEngineConcurrentUpdates(t *testing.T) { overBands(t, testEngineConcurrentUpdates) }

func testEngineConcurrentUpdates(t *testing.T, parts int) {
	const (
		n    = 300
		dims = 3
		k    = 4
	)
	td := buildData(t, n, dims, 37)
	e := buildEngine(t, parts, td.recs, Config{MaxK: 6, CacheEntries: 8, Workers: 4})
	r := box(t, []float64{0.25, 0.25}, []float64{0.35, 0.35})
	ctx := context.Background()

	// mirror tracks the logical dataset; expected maps each observed epoch
	// to the reference UTK1 answer for (r, k) at that epoch.
	type state struct {
		sync.Mutex
		mirror map[int][]float64
	}
	st := &state{mirror: map[int][]float64{}}
	for id, rec := range td.recs {
		st.mirror[id] = rec
	}
	var expMu sync.RWMutex
	expected := map[uint64]string{}

	reference := func() string {
		ids := make([]int, 0, len(st.mirror))
		for id := range st.mirror {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		recs := make([][]float64, len(ids))
		for i, id := range ids {
			recs[i] = st.mirror[id]
		}
		tree, err := rtree.BulkLoad(recs, rtree.DefaultFanout)
		if err != nil {
			t.Error(err)
			return ""
		}
		got, _, err := core.RSA(tree, r, k, core.Options{})
		if err != nil {
			t.Error(err)
			return ""
		}
		// Map positional ids back to engine ids.
		out := make([]int, len(got))
		for i, pos := range got {
			out[i] = ids[pos]
		}
		sort.Ints(out)
		return fmt.Sprint(out)
	}
	record := func(epoch uint64, want string) {
		expMu.Lock()
		defer expMu.Unlock()
		if prev, ok := expected[epoch]; ok && prev != want {
			t.Errorf("epoch %d: band-unchanged update altered the answer: %s -> %s", epoch, prev, want)
		}
		expected[epoch] = want
	}
	st.Lock()
	record(e.Epoch(), reference())
	st.Unlock()

	updates := 30
	queriesPer := 20
	if testing.Short() {
		updates, queriesPer = 10, 8
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for u := 0; u < updates; u++ {
			st.Lock()
			if rng.Intn(2) == 0 || len(st.mirror) < n/2 {
				rec := make([]float64, dims)
				for j := range rec {
					rec[j] = rng.Float64()
				}
				if rng.Intn(4) == 0 {
					// Near-top records stress the band and invalidation.
					for j := range rec {
						rec[j] = 0.9 + 0.1*rng.Float64()
					}
				}
				id, err := e.Insert(rec)
				if err != nil {
					t.Error(err)
					st.Unlock()
					return
				}
				st.mirror[id] = append([]float64(nil), rec...)
			} else {
				ids := make([]int, 0, len(st.mirror))
				for id := range st.mirror {
					ids = append(ids, id)
				}
				victim := ids[rng.Intn(len(ids))]
				if err := e.Delete(victim); err != nil {
					t.Error(err)
					st.Unlock()
					return
				}
				delete(st.mirror, victim)
			}
			record(e.Epoch(), reference())
			st.Unlock()
		}
	}()

	// Observed (epoch, answer) pairs are validated after the updater has
	// drained, when every epoch's reference is recorded. Checking inline
	// would race the updater's publish→record window: a query can observe a
	// just-published epoch before its reference lands in the map, and on a
	// single CPU the queriers can drain entirely inside one such window.
	const queriers = 6
	type observation struct {
		epoch uint64
		got   string
	}
	var obs []observation
	var obsMu sync.Mutex
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queriesPer; i++ {
				if rng.Intn(3) == 0 {
					// Exercise UTK2 concurrently; its cells are checked for
					// internal consistency (sorted, non-empty at this k).
					res, err := e.Do(ctx, Request{Variant: UTK2, K: 2, Region: r})
					if err != nil {
						t.Error(err)
						return
					}
					for _, c := range res.Cells {
						if len(c.TopK) != 2 {
							t.Errorf("UTK2 cell with %d ids, want 2", len(c.TopK))
							return
						}
					}
					continue
				}
				res, err := e.Do(ctx, Request{Variant: UTK1, K: k, Region: r})
				if err != nil {
					t.Error(err)
					return
				}
				obsMu.Lock()
				obs = append(obs, observation{res.Epoch, fmt.Sprint(res.IDs)})
				obsMu.Unlock()
			}
		}(int64(q + 1))
	}
	wg.Wait()

	var validated, skipped int64
	expMu.RLock()
	for _, o := range obs {
		want, ok := expected[o.epoch]
		if !ok {
			// A query served from a pipelined batch's reserved-but-unpublished
			// snapshot can carry an epoch the updater never published (the
			// batch superseded); rare and benign.
			skipped++
			continue
		}
		validated++
		if o.got != want {
			t.Errorf("epoch %d: result %s != reference %s (torn superset?)", o.epoch, o.got, want)
		}
	}
	expMu.RUnlock()
	if validated == 0 {
		t.Errorf("no query was validated against a recorded epoch (skipped %d)", skipped)
	}

	// Counter reconciliation after the dust settles.
	stats := e.Stats()
	if stats.Queries != stats.Hits+stats.Misses+stats.Shared+stats.DerivedHits {
		t.Errorf("queries %d != hits %d + misses %d + shared %d + derived %d",
			stats.Queries, stats.Hits, stats.Misses, stats.Shared, stats.DerivedHits)
	}
	if stats.Inserts+stats.Deletes != uint64(updates) {
		t.Errorf("inserts %d + deletes %d != %d applied updates", stats.Inserts, stats.Deletes, updates)
	}
	if stats.UpdateBatches != uint64(updates) {
		t.Errorf("update batches %d, want %d", stats.UpdateBatches, updates)
	}
	if stats.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after drain", stats.InFlight)
	}
	if stats.Live != len(st.mirror) {
		t.Errorf("live %d != mirror %d", stats.Live, len(st.mirror))
	}
	if stats.Rejected != 0 {
		t.Errorf("rejected = %d with no deadlines in play", stats.Rejected)
	}
}
