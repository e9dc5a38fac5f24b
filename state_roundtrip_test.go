package utk

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/store"
	"repro/internal/store/legacytest"
)

// partsEngine builds an engine over ds. With more than one part it opens the
// records the way a data directory written by the retired partitioned
// engine reopens: split round-robin over the parts, written in the frozen
// sharded snapshot layout, and decoded by the store into the one band.
func partsEngine(t *testing.T, ds *Dataset, parts int, cfg EngineConfig) *Engine {
	t.Helper()
	if parts <= 1 {
		e, err := ds.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	l, err := legacytest.Partition(ds.records, parts, cfg.MaxK)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.DecodeSnapshot(l.Encode(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	e, err := RestoreEngine(snap.Engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stateAnswers canonicalizes an engine's UTK1/UTK2 answers for equality
// checks across an export/restore cycle.
func stateAnswers(t *testing.T, e *Engine, r *Region) string {
	t.Helper()
	q := Query{K: 3, Region: r}
	r1, err := e.UTK1(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ids := append([]int(nil), r1.Records...)
	sort.Ints(ids)
	r2, err := e.UTK2(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("utk1=%v utk2=%v", ids, cellSets(r2.Cells))
}

// TestEngineStateRoundtrip exports a mutated engine's state and restores it
// into a fresh engine: answers, epoch, and live population must match, and
// both engines must evolve identically under further updates. shards=3 starts
// from a legacy three-part snapshot reopened as one band.
func TestEngineStateRoundtrip(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", parts), func(t *testing.T) {
			ds, r := facadeFixture(t)
			cfg := EngineConfig{MaxK: 6}
			e := partsEngine(t, ds, parts, cfg)
			if got, want := stateAnswers(t, e, r), stateAnswers(t, partsEngine(t, ds, 1, cfg), r); got != want {
				t.Fatalf("reopened answers %s, built engine's %s", got, want)
			}
			ops := []UpdateOp{
				{Kind: UpdateInsert, Record: []float64{0.95, 0.9, 0.85}},
				{Kind: UpdateDelete, ID: 17},
				{Kind: UpdateInsert, Record: []float64{0.2, 0.8, 0.4}},
			}
			if _, err := e.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}

			restored, err := RestoreEngine(e.State(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Dim() != e.Dim() || restored.MaxK() != e.MaxK() {
				t.Fatalf("restored shape dim=%d maxk=%d, want %d/%d", restored.Dim(), restored.MaxK(), e.Dim(), e.MaxK())
			}
			es, rs := e.Stats(), restored.Stats()
			if es.Epoch != rs.Epoch || es.Live != rs.Live || es.SupersetSize != rs.SupersetSize {
				t.Fatalf("restored stats epoch=%d live=%d superset=%d, want %d/%d/%d",
					rs.Epoch, rs.Live, rs.SupersetSize, es.Epoch, es.Live, es.SupersetSize)
			}
			if got, want := stateAnswers(t, restored, r), stateAnswers(t, e, r); got != want {
				t.Fatalf("restored answers %s, want %s", got, want)
			}

			// Further updates must keep the two engines in lockstep: same
			// assigned ids, same epochs, same answers.
			more := []UpdateOp{
				{Kind: UpdateInsert, Record: []float64{0.7, 0.7, 0.7}},
				{Kind: UpdateDelete, ID: 3},
			}
			res1, err := e.ApplyBatch(more)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := restored.ApplyBatch(more)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res1.IDs) != fmt.Sprint(res2.IDs) || res1.Epoch != res2.Epoch {
				t.Fatalf("post-restore update diverged: ids %v/%v epoch %d/%d", res1.IDs, res2.IDs, res1.Epoch, res2.Epoch)
			}
			if got, want := stateAnswers(t, restored, r), stateAnswers(t, e, r); got != want {
				t.Fatalf("post-restore answers %s, want %s", got, want)
			}
		})
	}
}

// TestRestoreEngineRejectsBadState exercises the validation surface.
func TestRestoreEngineRejectsBadState(t *testing.T) {
	ds, _ := facadeFixture(t)
	e, err := ds.NewEngine(EngineConfig{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := e.State()
	if _, err := RestoreEngine(nil, EngineConfig{MaxK: 4}); err == nil {
		t.Fatal("nil state accepted")
	}
	if _, err := RestoreEngine(&EngineState{}, EngineConfig{MaxK: 4}); err == nil {
		t.Fatal("empty state accepted")
	}
	if _, err := RestoreEngine(st, EngineConfig{MaxK: 9}); err == nil {
		t.Fatal("MaxK mismatch accepted")
	}
	// Duplicate live id must be rejected.
	bad := *st
	badDyn := *bad.Dyn
	badDyn.LiveIDs = append([]int(nil), badDyn.LiveIDs...)
	if len(badDyn.LiveIDs) > 1 {
		badDyn.LiveIDs[1] = badDyn.LiveIDs[0]
		bad.Dyn = &badDyn
		if _, err := RestoreEngine(&bad, EngineConfig{MaxK: 4}); err == nil {
			t.Fatal("duplicate live id accepted")
		}
	}
}
