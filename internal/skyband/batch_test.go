package skyband

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
)

// applySequentialOps is the per-op oracle for ApplyOps: the identical
// coalescing plan followed by one Insert/Delete call per surviving op — the
// exact loop engine.beginBatch ran before the batch-native path existed.
func applySequentialOps(t *testing.T, d *Dynamic, ops []Op) ([]int, []Effect) {
	t.Helper()
	nextID := d.NextID()
	insPos := map[int]int{}
	deleted := map[int]bool{}
	coalesce := make([]bool, len(ops))
	for i, op := range ops {
		if op.Insert {
			insPos[nextID] = i
			nextID++
			continue
		}
		j, predicted := insPos[op.ID]
		if deleted[op.ID] || (!predicted && !d.Has(op.ID)) {
			t.Fatalf("oracle: invalid delete of id %d", op.ID)
		}
		deleted[op.ID] = true
		if predicted {
			coalesce[j] = true
			coalesce[i] = true
		}
	}
	ids := make([]int, len(ops))
	effs := make([]Effect, len(ops))
	for i, op := range ops {
		switch {
		case coalesce[i] && op.Insert:
			ids[i] = d.SkipID()
		case coalesce[i]:
			ids[i] = op.ID
		case op.Insert:
			ids[i], effs[i] = d.Insert(op.Record)
		default:
			_, eff, ok := d.Delete(op.ID)
			if !ok {
				t.Fatalf("oracle: delete of dead id %d", op.ID)
			}
			ids[i], effs[i] = op.ID, eff
		}
	}
	return ids, effs
}

// memberCounts returns the member set as an id → exact dominator count map.
func memberCounts(d *Dynamic) map[int]int {
	m := make(map[int]int, len(d.ents))
	for i := range d.ents {
		m[d.ents[i].id] = d.ents[i].count
	}
	return m
}

func sortedIDs(m map[int][]float64) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// randomBatch builds a batch of the given size: random inserts, deletes of
// still-live ids (tracked through the caller's mirror), and occasionally a
// delete of an id the batch itself inserts (the coalesced churn pair).
func randomBatch(rng *rand.Rand, d *Dynamic, liveIDs *[]int, dim, size int) []Op {
	ops := make([]Op, 0, size)
	nextID := d.NextID()
	var predicted []int
	chosen := map[int]bool{}
	for len(ops) < size {
		roll := rng.Intn(10)
		switch {
		case roll == 0 && len(predicted) > 0:
			// Churn pair: delete an id this very batch will insert.
			id := predicted[rng.Intn(len(predicted))]
			if chosen[id] {
				continue
			}
			chosen[id] = true
			ops = append(ops, Op{ID: id})
		case roll < 5 && len(*liveIDs) > 0:
			id := (*liveIDs)[rng.Intn(len(*liveIDs))]
			if chosen[id] {
				continue
			}
			chosen[id] = true
			ops = append(ops, Op{ID: id})
		default:
			rec := make([]float64, dim)
			for j := range rec {
				rec[j] = rng.Float64()
			}
			ops = append(ops, Op{Insert: true, Record: rec})
			predicted = append(predicted, nextID)
			nextID++
		}
	}
	// Update the mirror of live ids to the post-batch population.
	next := (*liveIDs)[:0]
	for _, id := range *liveIDs {
		if !chosen[id] {
			next = append(next, id)
		}
	}
	for _, id := range predicted {
		if !chosen[id] {
			next = append(next, id)
		}
	}
	*liveIDs = next
	return ops
}

func buildTwin(t *testing.T, recs [][]float64, k, shadow int) (*Dynamic, *Dynamic) {
	t.Helper()
	a, err := NewDynamic(recs, nil, k, shadow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDynamic(recs, nil, k, shadow)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestApplyOpsBitExactDifferential pins ApplyOps ≡ sequential per-op apply
// bit for bit — assigned ids, full per-op effects, member counts, shadow
// membership, coverage, and the live set — with repair and the adaptive
// shadow off, across dimensions 2–5 and batch sizes 1–256 of mixed
// insert/delete/churn ops. The band is additionally checked against the
// O(n²) brute-force definition.
func TestApplyOpsBitExactDifferential(t *testing.T) {
	trials := 20
	batchesPer := 12
	if testing.Short() {
		trials = 6
		batchesPer = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		dim := 2 + trial%4
		k := 1 + rng.Intn(6)
		shadow := rng.Intn(2 * k)
		n := 30 + rng.Intn(100)
		recs := dataset.Synthetic(dataset.IND, n, dim, int64(trial+1))
		seq, bat := buildTwin(t, recs, k, shadow)

		live := map[int][]float64{}
		for id, rec := range recs {
			live[id] = append([]float64(nil), rec...)
		}
		liveIDs := sortedIDs(live)

		for b := 0; b < batchesPer; b++ {
			size := []int{1, 2, 3, 5, 8, 16, 47, 64, 129, 256}[rng.Intn(10)]
			ops := randomBatch(rng, bat, &liveIDs, dim, size)
			ctxt := fmt.Sprintf("trial %d batch %d (size %d, d=%d, k=%d, shadow=%d)",
				trial, b, size, dim, k, shadow)

			wantIDs, wantEffs := applySequentialOps(t, seq, ops)
			gotIDs, gotEffs, err := bat.ApplyOps(ops)
			if err != nil {
				t.Fatalf("%s: ApplyOps: %v", ctxt, err)
			}
			if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
				t.Fatalf("%s: ids %v != %v", ctxt, gotIDs, wantIDs)
			}
			if fmt.Sprint(gotEffs) != fmt.Sprint(wantEffs) {
				t.Fatalf("%s: effects %v != %v", ctxt, gotEffs, wantEffs)
			}
			// Maintain the brute-force mirror: all inserted ids go live, then
			// every delete — including a coalesced pair's — removes its target.
			for i, op := range ops {
				if op.Insert {
					live[wantIDs[i]] = append([]float64(nil), op.Record...)
				}
			}
			for _, op := range ops {
				if !op.Insert {
					delete(live, op.ID)
				}
			}

			if got, want := memberCounts(bat), memberCounts(seq); fmt.Sprint(sortedCounts(got)) != fmt.Sprint(sortedCounts(want)) {
				t.Fatalf("%s: member counts diverged\n got %v\nwant %v", ctxt, got, want)
			}
			if bat.cov != seq.cov {
				t.Fatalf("%s: coverage %d != %d", ctxt, bat.cov, seq.cov)
			}
			if fmt.Sprint(sortedIDs(bat.live)) != fmt.Sprint(sortedIDs(seq.live)) {
				t.Fatalf("%s: live sets diverged", ctxt)
			}
			checkBand(t, bat, live, k, ctxt)
		}
	}
}

func sortedCounts(m map[int]int) [][2]int {
	out := make([][2]int, 0, len(m))
	for id, c := range m {
		out = append(out, [2]int{id, c})
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// TestApplyOpsObservablesDifferentialWithRepair runs the same twin scenario
// with incremental repair and the adaptive shadow enabled. Repair pacing
// differs between one end-of-batch maintenance step and per-op ticks, so
// shadow membership and Rebuilt timing may legitimately diverge — but the
// observable contract may not: assigned ids, the live set, the band (the
// exact k-skyband in both paths), and the (BandChanged, InBand) effect bits
// every engine decision is built on.
func TestApplyOpsObservablesDifferentialWithRepair(t *testing.T) {
	trials := 12
	batchesPer := 16
	if testing.Short() {
		trials = 4
		batchesPer = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		dim := 2 + trial%4
		k := 1 + rng.Intn(6)
		shadow := 1 + rng.Intn(2*k)
		n := 40 + rng.Intn(120)
		recs := dataset.Synthetic(dataset.ANTI, n, dim, int64(trial+1))
		seq, bat := buildTwin(t, recs, k, shadow)
		for _, d := range []*Dynamic{seq, bat} {
			d.EnableIncrementalRepair(8)
			d.EnableAdaptiveShadow(shadow, 8*shadow)
		}

		live := map[int][]float64{}
		for id, rec := range recs {
			live[id] = append([]float64(nil), rec...)
		}
		liveIDs := sortedIDs(live)

		for b := 0; b < batchesPer; b++ {
			size := 1 + rng.Intn(64)
			ops := randomBatch(rng, bat, &liveIDs, dim, size)
			ctxt := fmt.Sprintf("repair trial %d batch %d (size %d)", trial, b, size)

			wantIDs, wantEffs := applySequentialOps(t, seq, ops)
			gotIDs, gotEffs, err := bat.ApplyOps(ops)
			if err != nil {
				t.Fatalf("%s: ApplyOps: %v", ctxt, err)
			}
			if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
				t.Fatalf("%s: ids %v != %v", ctxt, gotIDs, wantIDs)
			}
			for i := range gotEffs {
				if gotEffs[i].BandChanged != wantEffs[i].BandChanged ||
					gotEffs[i].InBand != wantEffs[i].InBand {
					t.Fatalf("%s: op %d effect (%+v) != (%+v)", ctxt, i, gotEffs[i], wantEffs[i])
				}
			}
			for _, op := range ops {
				if !op.Insert {
					delete(live, op.ID)
				}
			}
			for i, op := range ops {
				if op.Insert && bat.Has(gotIDs[i]) {
					live[gotIDs[i]] = append([]float64(nil), op.Record...)
				}
			}
			if fmt.Sprint(sortedIDs(bat.live)) != fmt.Sprint(sortedIDs(seq.live)) {
				t.Fatalf("%s: live sets diverged", ctxt)
			}
			checkBand(t, bat, live, k, ctxt)
			checkBand(t, seq, live, k, ctxt+" (oracle)")
		}
	}
}

// TestApplyOpsParallelMemberPass drives batches over a member set large
// enough to fan the dominance pass across pool workers, and pins the result
// against a sequential (pool-less) twin plus brute force. Run under -race
// this is the data-race check on the chunked read-only pass.
func TestApplyOpsParallelMemberPass(t *testing.T) {
	n, dim, k, shadow := 4000, 4, 16, 16
	if testing.Short() {
		n = 2000
	}
	recs := dataset.Synthetic(dataset.ANTI, n, dim, 99)
	seq, bat := buildTwin(t, recs, k, shadow)
	if len(bat.ents) <= minMaintChunk {
		t.Fatalf("scenario too small to exercise chunking: %d members", len(bat.ents))
	}
	pool := exec.NewPool(4, 0)
	bat.SetPool(pool)

	live := map[int][]float64{}
	for id, rec := range recs {
		live[id] = append([]float64(nil), rec...)
	}
	liveIDs := sortedIDs(live)

	rng := rand.New(rand.NewSource(5))
	for b := 0; b < 6; b++ {
		ops := randomBatch(rng, bat, &liveIDs, dim, 64)
		ctxt := fmt.Sprintf("parallel batch %d", b)
		wantIDs, wantEffs := applySequentialOps(t, seq, ops)
		gotIDs, gotEffs, err := bat.ApplyOps(ops)
		if err != nil {
			t.Fatalf("%s: %v", ctxt, err)
		}
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) || fmt.Sprint(gotEffs) != fmt.Sprint(wantEffs) {
			t.Fatalf("%s: ids/effects diverged from sequential twin", ctxt)
		}
		if fmt.Sprint(sortedCounts(memberCounts(bat))) != fmt.Sprint(sortedCounts(memberCounts(seq))) {
			t.Fatalf("%s: member counts diverged", ctxt)
		}
		for i, op := range ops {
			if op.Insert {
				live[gotIDs[i]] = append([]float64(nil), op.Record...)
			}
		}
		for _, op := range ops {
			if !op.Insert {
				delete(live, op.ID)
			}
		}
	}
	checkBand(t, bat, live, k, "parallel final")
	if bat.Stats().ParallelMaintenanceChunks == 0 {
		t.Fatal("parallel member pass never fanned out (ParallelMaintenanceChunks == 0)")
	}
}

// TestApplyOpsSingleMaintenanceStep pins the deferred-maintenance contract:
// a batch with a repair in flight advances it with at most one chunked
// repair step — where the per-op path would have ticked once per op — and
// the maintenance step still runs (the batch is not allowed to starve the
// repair either).
func TestApplyOpsSingleMaintenanceStep(t *testing.T) {
	n, dim, k, shadow := 400, 3, 4, 16
	recs := dataset.Synthetic(dataset.IND, n, dim, 11)
	d, err := NewDynamic(recs, nil, k, shadow)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableIncrementalRepair(4)

	// Erode coverage with band-member deletes until a repair is in flight.
	for i := 0; i < n && !d.repairing; i++ {
		ids, _ := d.Band()
		if len(ids) == 0 {
			break
		}
		if _, _, ok := d.Delete(ids[0]); !ok {
			t.Fatalf("delete of band member %d failed", ids[0])
		}
	}
	if !d.repairing {
		t.Fatal("scenario never started a repair; pin exercised nothing")
	}

	// Insert-only batches cannot erode coverage or exhaust the shadow, so
	// every repair-step increment must come from the end-of-batch tick.
	rng := rand.New(rand.NewSource(3))
	for b := 0; b < 4 && d.repairing; b++ {
		ops := make([]Op, 16)
		for i := range ops {
			rec := make([]float64, dim)
			for j := range rec {
				rec[j] = rng.Float64()
			}
			ops[i] = Op{Insert: true, Record: rec}
		}
		before := d.stats.RepairSteps
		if _, _, err := d.ApplyOps(ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if steps := d.stats.RepairSteps - before; steps != 1 {
			t.Fatalf("batch %d: %d repair steps for one batch, want exactly 1", b, steps)
		}
	}
}

// TestApplyOpsValidation pins the batch-level error contract: a bad batch is
// rejected atomically, leaving the structure untouched.
func TestApplyOpsValidation(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 30, 3, 7)
	d, err := NewDynamic(recs, nil, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(sortedCounts(memberCounts(d)), d.NextID(), d.Len())

	if _, _, err := d.ApplyOps([]Op{{Insert: true, Record: []float64{1, 2, 3}}, {ID: 9999}}); err != ErrUnknownID {
		t.Fatalf("unknown id: got %v", err)
	}
	if _, _, err := d.ApplyOps([]Op{{ID: 3}, {ID: 3}}); err != ErrDuplicateDelete {
		t.Fatalf("duplicate delete: got %v", err)
	}
	// Delete of an id a later insert would predict is unknown at its position.
	if _, _, err := d.ApplyOps([]Op{{ID: d.NextID()}, {Insert: true, Record: []float64{1, 2, 3}}}); err != ErrUnknownID {
		t.Fatalf("forward predicted id: got %v", err)
	}
	if after := fmt.Sprint(sortedCounts(memberCounts(d)), d.NextID(), d.Len()); after != before {
		t.Fatalf("rejected batch mutated the structure:\n before %s\n after  %s", before, after)
	}

	// Coalesced churn pair: net no-op on the record population, ids aligned.
	next := d.NextID()
	ids, effs, err := d.ApplyOps([]Op{
		{Insert: true, Record: []float64{0.5, 0.5, 0.5}},
		{ID: next},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != next || ids[1] != next {
		t.Fatalf("coalesced pair ids %v, want both %d", ids, next)
	}
	if effs[0] != (Effect{}) || effs[1] != (Effect{}) {
		t.Fatalf("coalesced pair produced effects %v", effs)
	}
	if d.Has(next) {
		t.Fatal("coalesced insert went live")
	}
	if d.NextID() != next+1 {
		t.Fatalf("coalesced insert did not consume its id: next %d, want %d", d.NextID(), next+1)
	}
}
