package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// randomBandTests builds a randomized band snapshot plus a set of affectsTest
// probes sharing it, mirroring how beginBatch constructs them: every test
// references one snapshot, inserts exclude their own band id, deletes exclude
// the batch's transient inserts.
func randomBandTests(rng *rand.Rand, dim, band, nTests int) []affectsTest {
	recs := make([][]float64, band)
	ids := make([]int, band)
	for i := range recs {
		rec := make([]float64, dim)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		recs[i] = rec
		ids[i] = i
	}
	tests := make([]affectsTest, nTests)
	for i := range tests {
		rec := make([]float64, dim)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		tests[i] = affectsTest{rec: rec, exclude: -1, recs: recs, ids: ids}
		switch rng.Intn(3) {
		case 0: // insert probe: skips its own band id
			tests[i].exclude = rng.Intn(band)
		case 1: // delete probe: skips the batch's transient inserts
			tests[i].excludeSet = map[int]bool{rng.Intn(band): true, rng.Intn(band): true}
		}
	}
	return tests
}

// TestBatchProbesMatchPerOp is the equivalence proof behind batched
// invalidation: for randomized batches and randomized cached regions, the
// grouped multi-delta pass (runProbes) must invalidate exactly the keys the
// per-op, per-entry probe loop would.
func TestBatchProbesMatchPerOp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 3
	for trial := 0; trial < 60; trial++ {
		band := 8 + rng.Intn(40)
		tests := randomBandTests(rng, dim, band, 1+rng.Intn(6))

		// A few distinct (region, k) shapes, each held by several entries —
		// the duplication is what grouping exploits, and what the
		// equivalence check must not be confused by.
		nShapes := 1 + rng.Intn(5)
		var entries []cacheEntry
		for s := 0; s < nShapes; s++ {
			lo := make([]float64, dim-1)
			hi := make([]float64, dim-1)
			// Keep boxes inside the weight simplex: Σ lo must stay < 1.
			for j := range lo {
				lo[j] = rng.Float64() * 0.3
				hi[j] = lo[j] + 0.01 + rng.Float64()*0.1
			}
			r, err := geom.NewBox(lo, hi)
			if err != nil {
				t.Fatalf("trial %d: NewBox: %v", trial, err)
			}
			k := 1 + rng.Intn(6)
			for c := 0; c < 1+rng.Intn(3); c++ {
				// Distinct variants share a probeGroupID (the verdict
				// depends only on region and k), so alternating them
				// exercises the grouping across keys.
				v := UTK1
				if c%2 == 1 {
					v = UTK2
				}
				key := fingerprint(v, k, r, core.Options{})
				entries = append(entries, cacheEntry{Key: key, Region: r, K: k})
			}
		}

		want := map[string]bool{}
		for _, ent := range entries {
			for i := range tests {
				if tests[i].affects(ent.Region, ent.K) {
					want[ent.Key] = true
					break
				}
			}
		}
		affected, groups := runProbes(entries, tests)
		got := map[string]bool{}
		for _, key := range affected {
			got[key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: batched invalidated %d keys, per-op %d\nbatched: %v\nper-op: %v",
				trial, len(got), len(want), got, want)
		}
		for key := range want {
			if !got[key] {
				t.Fatalf("trial %d: per-op invalidates %q, batched does not", trial, key)
			}
		}
		if groups > nShapes {
			t.Fatalf("trial %d: %d probe groups for %d shapes", trial, groups, nShapes)
		}
	}
}

// TestProbeGroupSharing pins the grouping invariant directly: same (region,
// k) with different variants or worker options must share a probeGroupID;
// different k or different region must not.
func TestProbeGroupSharing(t *testing.T) {
	r1, err := geom.NewBox([]float64{0.1, 0.1}, []float64{0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := geom.NewBox([]float64{0.3, 0.3}, []float64{0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	base := probeGroupID(fingerprint(UTK1, 5, r1, core.Options{}))
	same := []string{
		fingerprint(UTK2, 5, r1, core.Options{}),
		fingerprint(UTK1, 5, r1, core.Options{Workers: 4}),
	}
	for i, key := range same {
		if probeGroupID(key) != base {
			t.Errorf("key %d: same (region,k) landed in a different probe group", i)
		}
	}
	diff := []string{
		fingerprint(UTK1, 6, r1, core.Options{}),
		fingerprint(UTK1, 5, r2, core.Options{}),
	}
	for i, key := range diff {
		if probeGroupID(key) == base {
			t.Errorf("key %d: different (region,k) shares a probe group", i)
		}
	}
}

// TestPipelinedApplyEquivalence drives identical randomized workloads through
// ApplyBatch and through ApplyBatchPipelined (with commits deliberately
// deferred and then issued in order) and requires identical results, epochs,
// and final index contents.
func TestPipelinedApplyEquivalence(t *testing.T) {
	td := buildData(t, 400, 3, 3)
	blocking, err := New(td.recs, Config{MaxK: 5, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := New(td.recs, Config{MaxK: 5, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	nextID := 400
	var commits []func()
	for batch := 0; batch < 20; batch++ {
		var ops []UpdateOp
		for i := 0; i < 8; i++ {
			if rng.Intn(2) == 0 && nextID > 0 {
				ops = append(ops, UpdateOp{Kind: UpdateDelete, ID: rng.Intn(nextID)})
			} else {
				rec := make([]float64, 3)
				for j := range rec {
					rec[j] = rng.Float64()
				}
				ops = append(ops, UpdateOp{Kind: UpdateInsert, Record: rec})
			}
		}
		br, berr := blocking.ApplyBatch(ops)
		pr, commit, perr := pipelined.ApplyBatchPipelined(ops)
		if (berr == nil) != (perr == nil) {
			t.Fatalf("batch %d: error divergence: blocking %v, pipelined %v", batch, berr, perr)
		}
		if berr != nil {
			continue
		}
		commits = append(commits, commit)
		if br.Epoch != pr.Epoch || br.Live != pr.Live || br.SupersetSize != pr.SupersetSize {
			t.Fatalf("batch %d: result divergence: blocking %+v, pipelined %+v", batch, br, pr)
		}
		if fmt.Sprint(br.IDs) != fmt.Sprint(pr.IDs) {
			t.Fatalf("batch %d: id divergence: %v vs %v", batch, br.IDs, pr.IDs)
		}
		nextID = 400
		for _, id := range br.IDs {
			if id >= nextID {
				nextID = id + 1
			}
		}
		// Commit every few batches so several begin windows overlap.
		if len(commits) >= 3 {
			for _, c := range commits {
				c()
			}
			commits = commits[:0]
		}
	}
	for _, c := range commits {
		c()
	}

	bIdx, pIdx := blocking.idx.Load(), pipelined.idx.Load()
	if bIdx.epoch != pIdx.epoch {
		t.Fatalf("final epoch divergence: %d vs %d", bIdx.epoch, pIdx.epoch)
	}
	if fmt.Sprint(bIdx.ids, bIdx.counts) != fmt.Sprint(pIdx.ids, pIdx.counts) {
		t.Fatalf("final index contents diverge")
	}
	bs, ps := blocking.Stats(), pipelined.Stats()
	if bs.Live != ps.Live || bs.SupersetSize != ps.SupersetSize {
		t.Fatalf("final stats divergence: blocking %+v, pipelined %+v", bs, ps)
	}
}
