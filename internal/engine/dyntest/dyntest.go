// Package dyntest is the differential test harness for the dynamic serving
// engine: it drives randomized insert/delete/query interleavings — single
// ops and multi-op atomic batches, blocking or pipelined — through an
// incrementally maintained engine.Engine and checks every query answer
// against a freshly built static engine over the same logical dataset (and,
// for UTK2, against the brute-force top-k oracle probed at each cell's
// interior point).
//
// A wrong dynamic superset silently corrupts every downstream UTK1/UTK2
// answer — the filter is an exactness precondition, not an optimization — so
// this cross-check, not unit assertions on the skyband itself, is the
// primary correctness argument for the update path.
package dyntest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/oracle"
)

// Config describes one randomized interleaving scenario. All randomness
// derives from Seed, so a failing scenario replays exactly from the
// parameters echoed in its subtest name.
type Config struct {
	// Seed drives every random choice of the scenario.
	Seed int64
	// Dim is the data dimensionality (the region lives in Dim-1).
	Dim int
	// N is the initial dataset cardinality.
	N int
	// MaxK bounds query depth; queries draw k from [1, MaxK].
	MaxK int
	// Ops is the number of interleaved events (updates and queries).
	Ops int
	// Batch, when true, mixes multi-op atomic ApplyBatch events (2–5 random
	// inserts/deletes per batch, including delete-what-this-batch-inserted)
	// into the interleaving.
	Batch bool
	// Pipelined, with Batch, applies those batches through
	// ApplyBatchPipelined and asks a pool query between begin and commit:
	// the overlapped answer must be the exact pre-batch one, and must not
	// have been cached by the time the post-batch answer is asked for.
	Pipelined bool
}

// Run executes the scenario, failing t on the first divergence.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	kinds := []dataset.Kind{dataset.IND, dataset.COR, dataset.ANTI}
	recs := dataset.Synthetic(kinds[rng.Intn(len(kinds))], cfg.N, cfg.Dim, cfg.Seed)

	// The engine assigns sequential ids from N upward, so the harness can
	// predict in-batch insert ids (needed to build delete-what-this-batch-
	// inserted batches) and cross-check every assignment.
	dyn, err := engine.New(recs, engine.Config{
		MaxK:         cfg.MaxK,
		CacheEntries: 8, // small, so entries are both hit and invalidated
	})
	if err != nil {
		t.Fatal(err)
	}

	mirror := map[int][]float64{}
	liveIDs := make([]int, 0, cfg.N)
	for id, rec := range recs {
		mirror[id] = rec
		liveIDs = append(liveIDs, id)
	}
	nextID := cfg.N

	// Queries draw from a small per-trial pool of (region, k) combinations
	// rather than fresh random regions: repeats across updates are what
	// exercise the cache — hits on surviving entries must still be exact,
	// so a missed invalidation surfaces as a differential failure.
	pool := make([]queryCase, 4)
	for i := range pool {
		pool[i] = h.randomQueryCase(t, rng, cfg)
	}

	updates, queries := 0, 0
	for op := 0; op < cfg.Ops; op++ {
		switch {
		case rng.Float64() < 0.45 && len(mirror) > 0:
			queries++
			h.query(t, rng, dyn, mirror, cfg, op, pool[rng.Intn(len(pool))])
		case cfg.Batch && rng.Intn(4) == 0 && len(liveIDs) > cfg.MaxK+1:
			updates++
			liveIDs, nextID = h.applyRandomBatch(t, rng, dyn, mirror, liveIDs, nextID, cfg, op, pool[rng.Intn(len(pool))])
		case rng.Intn(2) == 0 || len(mirror) <= cfg.MaxK+1:
			updates++
			rec := h.randomRecord(rng, cfg.Dim, mirror, liveIDs)
			id, err := dyn.Insert(rec)
			if err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			if id != nextID {
				t.Fatalf("op %d: insert assigned id %d, want %d", op, id, nextID)
			}
			nextID++
			mirror[id] = append([]float64(nil), rec...)
			liveIDs = append(liveIDs, id)
		default:
			updates++
			// A uniform victim almost never touches the skyband, leaving the
			// deletion-repair machinery idle; a 4-way coordinate-sum
			// tournament biases deletions toward band members (promotions,
			// coverage erosion, rebuilds) while keeping deep deletes present.
			pick := rng.Intn(len(liveIDs))
			if rng.Intn(3) > 0 {
				for c := 0; c < 3; c++ {
					cand := rng.Intn(len(liveIDs))
					if sum(mirror[liveIDs[cand]]) > sum(mirror[liveIDs[pick]]) {
						pick = cand
					}
				}
			}
			id := liveIDs[pick]
			liveIDs[pick] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			if err := dyn.Delete(id); err != nil {
				t.Fatalf("op %d: delete %d: %v", op, id, err)
			}
			delete(mirror, id)
		}
		if t.Failed() {
			return
		}
		h.checkSuperset(t, dyn, mirror, cfg, op)
		if t.Failed() {
			return
		}
	}
	if queries == 0 { // degenerate draw: force one final comparison
		h.query(t, rng, dyn, mirror, cfg, cfg.Ops, pool[0])
	}

	st := dyn.Stats()
	if st.Queries != st.Hits+st.Misses+st.DerivedHits {
		t.Errorf("stats do not reconcile: %+v", st)
	}
	if st.Live != len(mirror) {
		t.Errorf("live %d != mirror %d", st.Live, len(mirror))
	}
}

// applyRandomBatch builds a 2–5 op atomic batch — random inserts, deletes of
// live records, and occasionally a delete of an id the same batch inserts —
// applies it, and folds the outcome into the mirror. Returns the updated
// live-id slice and next expected id. In pipelined mode qc is asked between
// the two stages (against the still-unchanged mirror) and again after commit.
func (harness) applyRandomBatch(t *testing.T, rng *rand.Rand, dyn *engine.Engine, mirror map[int][]float64, liveIDs []int, nextID int, cfg Config, op int, qc queryCase) ([]int, int) {
	t.Helper()
	n := 2 + rng.Intn(4)
	ops := make([]engine.UpdateOp, 0, n)
	predicted := nextID
	var batchInserted []int
	chosen := map[int]bool{} // ids already deleted by this batch
	for j := 0; j < n; j++ {
		roll := rng.Intn(4)
		switch {
		case roll == 0 && len(batchInserted) > 0:
			// Delete an id this very batch inserted (transient record).
			id := batchInserted[rng.Intn(len(batchInserted))]
			if chosen[id] {
				continue
			}
			chosen[id] = true
			ops = append(ops, engine.UpdateOp{Kind: engine.UpdateDelete, ID: id})
		case roll <= 1 && len(liveIDs) > 0:
			// Delete a live record, biased toward the band like single
			// deletes are.
			pick := rng.Intn(len(liveIDs))
			for c := 0; c < 3 && rng.Intn(3) > 0; c++ {
				cand := rng.Intn(len(liveIDs))
				if sum(mirror[liveIDs[cand]]) > sum(mirror[liveIDs[pick]]) {
					pick = cand
				}
			}
			id := liveIDs[pick]
			if chosen[id] {
				continue
			}
			chosen[id] = true
			ops = append(ops, engine.UpdateOp{Kind: engine.UpdateDelete, ID: id})
		default:
			rec := h.randomRecord(rng, cfg.Dim, mirror, liveIDs)
			ops = append(ops, engine.UpdateOp{Kind: engine.UpdateInsert, Record: append([]float64(nil), rec...)})
			batchInserted = append(batchInserted, predicted)
			predicted++
		}
	}
	if len(ops) == 0 {
		return liveIDs, nextID
	}
	res, commit, err := dyn.ApplyBatchPipelined(ops)
	if err != nil {
		t.Fatalf("op %d: batch (%d ops): %v", op, len(ops), err)
	}
	if cfg.Pipelined {
		h.query(t, rng, dyn, mirror, cfg, op, qc)
	}
	commit()
	expect := nextID
	for i, o := range ops {
		id := res.IDs[i]
		if o.Kind == engine.UpdateInsert {
			if id != expect {
				t.Fatalf("op %d: batch insert %d assigned id %d, want %d", op, i, id, expect)
			}
			expect++
			mirror[id] = append([]float64(nil), o.Record...)
			liveIDs = append(liveIDs, id)
		} else {
			if id != o.ID {
				t.Fatalf("op %d: batch delete %d echoed id %d, want %d", op, i, id, o.ID)
			}
			delete(mirror, id)
			for p, lid := range liveIDs {
				if lid == id {
					liveIDs[p] = liveIDs[len(liveIDs)-1]
					liveIDs = liveIDs[:len(liveIDs)-1]
					break
				}
			}
		}
	}
	if res.Live != len(mirror) {
		t.Fatalf("op %d: batch reported live %d, mirror has %d", op, res.Live, len(mirror))
	}
	if cfg.Pipelined {
		h.query(t, rng, dyn, mirror, cfg, op, qc)
	}
	return liveIDs, expect
}

// h namespaces the harness helpers (free functions would collide with test
// files of importing packages).
var h harness

type harness struct{}

func sum(rec []float64) float64 {
	s := 0.0
	for _, v := range rec {
		s += v
	}
	return s
}

// checkSuperset compares the maintained superset size against the
// brute-force MaxK-skyband of the mirror. Divergences here are caught long
// before a query happens to route through the damaged depth, which keeps the
// harness sensitive to maintenance bugs whose query-visible window is
// narrow (e.g. a missed fence promotion only perturbs depth-MaxK queries).
func (harness) checkSuperset(t *testing.T, dyn *engine.Engine, mirror map[int][]float64, cfg Config, op int) {
	t.Helper()
	if got, want := dyn.Stats().SupersetSize, bruteSkybandSize(mirror, cfg.MaxK); got != want {
		t.Errorf("op %d: maintained superset size %d != brute-force MaxK-skyband %d", op, got, want)
	}
}

// bruteSkybandSize counts mirror records dominated by fewer than k others.
func bruteSkybandSize(mirror map[int][]float64, k int) int {
	want := 0
	for id, rec := range mirror {
		cnt := 0
		for other, orec := range mirror {
			if other != id && geom.Dominates(orec, rec) {
				cnt++
				if cnt >= k {
					break
				}
			}
		}
		if cnt < k {
			want++
		}
	}
	return want
}

// randomRecord draws an insert: uniform, near-top (stressing the band and
// the invalidation probes), or a duplicate/near-tie of a live record.
func (harness) randomRecord(rng *rand.Rand, dim int, mirror map[int][]float64, liveIDs []int) []float64 {
	rec := make([]float64, dim)
	for j := range rec {
		rec[j] = rng.Float64()
	}
	switch {
	case rng.Intn(5) == 0:
		for j := range rec {
			rec[j] = 0.85 + 0.15*rng.Float64()
		}
	case len(liveIDs) > 0 && rng.Intn(5) == 0:
		src := mirror[liveIDs[rng.Intn(len(liveIDs))]]
		copy(rec, src)
		if rng.Intn(2) == 0 { // near-tie rather than exact duplicate
			j := rng.Intn(dim)
			rec[j] += 1e-4 * rng.Float64()
		}
	}
	return rec
}

// randomRegion draws a narrow box in the (dim-1)-dimensional preference
// domain, shrinking with dimensionality to keep JAA tractable.
func (harness) randomRegion(t *testing.T, rng *rand.Rand, dim int) *geom.Region {
	t.Helper()
	rd := dim - 1
	width := []float64{0, 0.08, 0.06, 0.03, 0.02}[rd]
	lo := make([]float64, rd)
	hi := make([]float64, rd)
	for j := range lo {
		lo[j] = 0.02 + rng.Float64()*(0.75/float64(rd))
		hi[j] = lo[j] + width*(0.5+rng.Float64())
	}
	r, err := geom.NewBox(lo, hi)
	if err != nil {
		t.Fatalf("region [%v, %v]: %v", lo, hi, err)
	}
	return r
}

// queryCase is one reusable (region, depth) combination of a trial's pool.
type queryCase struct {
	region *geom.Region
	k      int
}

// randomQueryCase draws a pool entry, biasing depth toward MaxK — the
// band's fringe, where incremental maintenance bugs surface first.
func (harness) randomQueryCase(t *testing.T, rng *rand.Rand, cfg Config) queryCase {
	t.Helper()
	k := 1 + rng.Intn(cfg.MaxK)
	if rng.Intn(3) == 0 {
		k = cfg.MaxK
	}
	if cfg.Dim >= 5 && k > 3 {
		k = 1 + rng.Intn(3) // bound the arrangement blow-up in 4-dim regions
	}
	return queryCase{region: h.randomRegion(t, rng, cfg.Dim), k: k}
}

// query runs one UTK query through the dynamic backend and through a freshly
// built static single engine over the identical logical dataset, failing on
// any divergence. For partitioned bands this asserts the full federation
// claim: the reduced union of per-part bands refined once ≡ one engine over
// the union of the partitions.
func (harness) query(t *testing.T, rng *rand.Rand, dyn *engine.Engine, mirror map[int][]float64, cfg Config, op int, qc queryCase) {
	t.Helper()
	r, k := qc.region, qc.k
	variant := engine.Variant(rng.Intn(2))

	// The static reference: a from-scratch engine over the mirror.
	ids := make([]int, 0, len(mirror))
	for id := range mirror {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	recs := make([][]float64, len(ids))
	for i, id := range ids {
		recs[i] = mirror[id]
	}
	static, err := engine.New(recs, engine.Config{MaxK: cfg.MaxK, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}

	req := engine.Request{Variant: variant, K: k, Region: r}
	got, err := dyn.Do(t.Context(), req)
	if err != nil {
		t.Fatalf("op %d: dynamic %v k=%d: %v", op, variant, k, err)
	}
	want, err := static.Do(t.Context(), req)
	if err != nil {
		t.Fatalf("op %d: static %v k=%d: %v", op, variant, k, err)
	}

	if variant == engine.UTK1 {
		wantIDs := make([]int, len(want.IDs))
		for i, pos := range want.IDs {
			wantIDs[i] = ids[pos]
		}
		sort.Ints(wantIDs)
		if fmt.Sprint(got.IDs) != fmt.Sprint(wantIDs) {
			t.Errorf("op %d: UTK1 k=%d diverged\ndynamic %v\nstatic  %v", op, k, got.IDs, wantIDs)
		}
		return
	}

	// UTK2: compare the multiset of top-k sets (cell geometry legitimately
	// differs with candidate order), then probe every dynamic cell against
	// the brute-force oracle at its interior point.
	gotSets := make([]string, len(got.Cells))
	for i, c := range got.Cells {
		gotSets[i] = fmt.Sprint(c.TopK)
	}
	sort.Strings(gotSets)
	wantSets := make([]string, len(want.Cells))
	for i, c := range want.Cells {
		mapped := make([]int, len(c.TopK))
		for j, pos := range c.TopK {
			mapped[j] = ids[pos]
		}
		sort.Ints(mapped)
		wantSets[i] = fmt.Sprint(mapped)
	}
	sort.Strings(wantSets)
	if fmt.Sprint(gotSets) != fmt.Sprint(wantSets) {
		t.Errorf("op %d: UTK2 k=%d cell multisets diverged\ndynamic %v\nstatic  %v", op, k, gotSets, wantSets)
		return
	}
	for _, c := range got.Cells {
		probe := oracle.TopKAt(recs, c.Interior, k)
		mapped := make([]int, len(probe))
		for j, pos := range probe {
			mapped[j] = ids[pos]
		}
		sort.Ints(mapped)
		if fmt.Sprint(c.TopK) != fmt.Sprint(mapped) {
			t.Errorf("op %d: UTK2 k=%d cell %v != oracle %v at %v", op, k, c.TopK, mapped, c.Interior)
			return
		}
	}
}
