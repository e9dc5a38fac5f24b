package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/skyband"
)

func newBand(t *testing.T, recs [][]float64, parts, k int) *Band {
	t.Helper()
	b, err := New(recs, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBandMatchesSingleDynamic pins the federation exactness at the seam the
// engine sees: for S=1..4 the partitioned band assigns the same ids and
// serves the same MaxK-skyband — ids, records and counts, in the same
// count-major order — as one
// skyband.Dynamic over the same records, initially and after every batch of a
// randomized update stream (near-top inserts, band-biased deletes, transient
// insert→delete pairs).
func TestBandMatchesSingleDynamic(t *testing.T) {
	const k = 6
	dims := []int{2, 3, 4}
	if testing.Short() {
		dims = []int{2, 3}
	}
	for _, d := range dims {
		recs := dataset.Synthetic(dataset.ANTI, 300, d, 42)
		for S := 1; S <= 4; S++ {
			t.Run(fmt.Sprintf("d%d_s%d", d, S), func(t *testing.T) {
				single, err := skyband.NewDynamic(recs, k)
				if err != nil {
					t.Fatal(err)
				}
				b := newBand(t, recs, S, k)
				same := func(step int) {
					t.Helper()
					wantIDs, wantRecs, wantCounts := single.Band()
					gotIDs, gotRecs, gotCounts := b.Band()
					if !reflect.DeepEqual(gotIDs, wantIDs) || !reflect.DeepEqual(gotRecs, wantRecs) || !reflect.DeepEqual(gotCounts, wantCounts) {
						t.Fatalf("step %d: partitioned band ids %v counts %v != single %v counts %v", step, gotIDs, gotCounts, wantIDs, wantCounts)
					}
					if b.nextGlobal != single.NextID() {
						t.Fatalf("step %d: next id %d != single %d", step, b.nextGlobal, single.NextID())
					}
				}
				same(-1)
				rng := rand.New(rand.NewSource(int64(100*d + S)))
				for step := 0; step < 40; step++ {
					var ops []skyband.Op
					next := single.NextID()
					for j := 0; j < 1+rng.Intn(5); j++ {
						switch rng.Intn(4) {
						case 0: // delete a band member
							ids, _, _ := single.Band()
							id := ids[rng.Intn(len(ids))]
							dup := false
							for _, op := range ops {
								dup = dup || (!op.Insert && op.ID == id)
							}
							if !dup {
								ops = append(ops, skyband.Op{ID: id})
							}
						case 1: // transient pair
							rec := make([]float64, d)
							for c := range rec {
								rec[c] = rng.Float64()
							}
							ops = append(ops, skyband.Op{Insert: true, Record: rec}, skyband.Op{ID: next})
							next++
						default:
							rec := make([]float64, d)
							for c := range rec {
								rec[c] = rng.Float64()
								if rng.Intn(3) == 0 {
									rec[c] = 0.8 + 0.2*rng.Float64()
								}
							}
							ops = append(ops, skyband.Op{Insert: true, Record: rec})
							next++
						}
					}
					wantIDs, wantEffs, err := single.ApplyOps(ops)
					if err != nil {
						t.Fatal(err)
					}
					gotIDs, gotEffs, err := b.ApplyOps(ops)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotIDs, wantIDs) {
						t.Fatalf("step %d: assigned ids %v != single %v", step, gotIDs, wantIDs)
					}
					same(step)
					for i, id := range wantIDs {
						if !reflect.DeepEqual(b.Record(id), single.Record(id)) {
							t.Fatalf("step %d: id %d: Record diverges from single", step, id)
						}
						// The engine probes exactly the ops reporting InBand, so a
						// part may over-report (its band ⊇ its share of the global
						// one) but never under-report.
						if wantEffs[i].InBand && !gotEffs[i].InBand {
							t.Fatalf("step %d: op %d (id %d) touched the global band but not its part's", step, i, id)
						}
					}
				}
				if got, want := b.Stats().Live, single.Stats().Live; got != want {
					t.Fatalf("live %d != single %d", got, want)
				}
			})
		}
	}
}

// TestRoutingAndUpdates exercises the id routing tables: round-robin
// placement, sequential global ids, per-part ownership after inserts, and
// owner cleanup after deletes.
func TestRoutingAndUpdates(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 10, 3, 7)
	b := newBand(t, recs, 3, 3)
	for g := 0; g < 10; g++ {
		if at, ok := b.owner[g]; !ok || at.part != g%3 {
			t.Fatalf("initial record %d: owner %+v ok=%v, want part %d", g, at, ok, g%3)
		}
	}
	// 10 % 3 == 1, so the next insert lands on part 1, then 2, then 0.
	for i, wantPart := range []int{1, 2, 0} {
		ids, _, err := b.ApplyOps([]skyband.Op{{Insert: true, Record: []float64{0.5, 0.5, 0.5}}})
		if err != nil {
			t.Fatal(err)
		}
		if ids[0] != 10+i {
			t.Fatalf("insert %d assigned id %d, want %d", i, ids[0], 10+i)
		}
		if at, ok := b.owner[ids[0]]; !ok || at.part != wantPart {
			t.Fatalf("insert %d: owner %+v ok=%v, want part %d", i, at, ok, wantPart)
		}
	}
	if _, _, err := b.ApplyOps([]skyband.Op{{ID: 11}}); err != nil {
		t.Fatal(err)
	}
	if b.Record(11) != nil {
		t.Fatal("deleted id 11 still has an owner")
	}
	if _, _, err := b.ApplyOps([]skyband.Op{{ID: 11}}); !errors.Is(err, skyband.ErrUnknownID) {
		t.Fatalf("double delete: got %v, want ErrUnknownID", err)
	}
	if st := b.Stats(); st.Live != 12 {
		t.Fatalf("live %d, want 12", st.Live)
	}
	// 4/3/3 initially, one insert each, id 11 deleted from part 2.
	for p, dyn := range b.parts {
		if got, want := dyn.Stats().Live, []int{5, 4, 3}[p]; got != want {
			t.Fatalf("part %d holds %d records, want %d", p, got, want)
		}
	}
}

// TestBatchAtomicity checks that a batch with an invalid op is a full no-op
// across every part, and that delete-after-insert within one batch works.
func TestBatchAtomicity(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 12, 3, 9)
	b := newBand(t, recs, 3, 3)
	before := b.State()

	// Invalid tail op: nothing may apply.
	_, _, err := b.ApplyOps([]skyband.Op{
		{Insert: true, Record: []float64{0.9, 0.9, 0.9}},
		{ID: 999},
	})
	if !errors.Is(err, skyband.ErrUnknownID) {
		t.Fatalf("bad batch: got %v, want ErrUnknownID", err)
	}
	if _, _, err := b.ApplyOps([]skyband.Op{{ID: 3}, {ID: 3}}); !errors.Is(err, skyband.ErrDuplicateDelete) {
		t.Fatalf("duplicate delete: got %v, want ErrDuplicateDelete", err)
	}
	if !reflect.DeepEqual(b.State(), before) {
		t.Fatal("rejected batches changed the band's state")
	}

	// Insert + delete of the inserted id in one batch: a transient record.
	ids, effs, err := b.ApplyOps([]skyband.Op{
		{Insert: true, Record: []float64{0.9, 0.9, 0.9}},
		{ID: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 12 || ids[1] != 12 {
		t.Fatalf("transient batch ids %v, want [12 12]", ids)
	}
	if effs[0].BandChanged || effs[1].BandChanged {
		t.Fatal("a coalesced pair reported a band change")
	}
	if b.Record(12) != nil || b.Stats().Live != 12 {
		t.Fatal("transient id 12 still live")
	}
	// The next insert must not reuse the transient id, and lands on the part
	// after the one the transient insert consumed.
	ids, _, err = b.ApplyOps([]skyband.Op{{Insert: true, Record: []float64{0.4, 0.4, 0.4}}})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 13 || b.owner[13].part != 1 {
		t.Fatalf("post-transient insert got id %d on part %d, want 13 on part 1", ids[0], b.owner[13].part)
	}
}

// TestBandMemo checks the reduction reruns only after a part's band changed.
func TestBandMemo(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 200, 3, 5)
	b := newBand(t, recs, 2, 3)
	ids0, _, _ := b.Band()
	if _, _, err := b.ApplyOps([]skyband.Op{{Insert: true, Record: []float64{-1, -1, -1}}}); err != nil {
		t.Fatal(err)
	}
	if ids1, _, _ := b.Band(); &ids1[0] != &ids0[0] {
		t.Fatal("a deep insert re-reduced the union band")
	}
	if _, _, err := b.ApplyOps([]skyband.Op{{Insert: true, Record: []float64{2, 2, 2}}}); err != nil {
		t.Fatal(err)
	}
	ids2, _, counts2 := b.Band()
	if ids2[0] != 201 || counts2[0] != 0 {
		t.Fatalf("dominating insert 201 does not lead the count-major band %v (counts %v)", ids2, counts2)
	}
	if !reflect.DeepEqual(ids0, func() []int { ids, _, _ := newBand(t, recs, 2, 3).Band(); return ids }()) {
		t.Fatal("a band handed out earlier was mutated")
	}
}

// TestNewValidation covers the construction error paths.
func TestNewValidation(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 5, 3, 3)
	if _, err := New(recs, 0, 2); !errors.Is(err, ErrBadShards) {
		t.Fatalf("parts=0: %v", err)
	}
	if _, err := New(recs, 6, 2); !errors.Is(err, ErrTooFewRecords) {
		t.Fatalf("more parts than records: %v", err)
	}
	if _, err := New(recs, 2, 0); err == nil {
		t.Fatal("band depth 0 accepted")
	}
	if _, err := Restore(&State{}); err == nil {
		t.Fatal("empty state accepted")
	}
}
