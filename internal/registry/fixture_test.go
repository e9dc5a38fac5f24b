package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	utk "repro"
	"repro/internal/store"
)

// TestShardedFixtureCompat reopens testdata/sharded_v1: a 3-shard
// durable dataset (240 IND records, d=3, MaxK 6; two batches, a checkpoint,
// then five WAL batches — among them three inserts landing on three different
// shards, a coalesced insert→delete pair, and multi-shard deletes) written by
// the last commit at which every shard was a child engine. Its snapshot
// stores per-child epochs and its WAL logs their sum, which runs ahead of the
// engine's publish counter. The directory must still open, replay, and answer
// exactly like the stateless algorithms over the live set the writer
// recorded in expected.json — and keep doing so after further updates and a
// second reopen, when the WAL mixes both epoch conventions.
func TestShardedFixtureCompat(t *testing.T) {
	var exp struct {
		Dim, Shards int
		MaxK        int `json:"max_k"`
		Epoch       uint64
		LiveIDs     []int       `json:"live_ids"`
		Records     [][]float64 // index-aligned with LiveIDs
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "sharded_v1", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &exp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "sharded_v1"), dir)

	check := func(ent *Entry, liveIDs []int, recs [][]float64) {
		t.Helper()
		if st := ent.Engine.Stats(); st.Shards != exp.Shards || st.Live != len(liveIDs) || st.MaxK != exp.MaxK {
			t.Fatalf("recovered shards=%d live=%d maxk=%d, want %d/%d/%d", st.Shards, st.Live, st.MaxK, exp.Shards, len(liveIDs), exp.MaxK)
		}
		static, err := utk.NewDataset(recs)
		if err != nil {
			t.Fatal(err)
		}
		global := func(pos []int) []int {
			out := make([]int, len(pos))
			for i, p := range pos {
				out[i] = liveIDs[p]
			}
			sort.Ints(out)
			return out
		}
		for _, k := range []int{1, 3, exp.MaxK} {
			for _, lo := range []float64{0.05, 0.2, 0.4} {
				region, err := utk.NewBoxRegion([]float64{lo, lo}, []float64{lo + 0.08, lo + 0.08})
				if err != nil {
					t.Fatal(err)
				}
				q := utk.Query{K: k, Region: region}
				got1, err := ent.Engine.UTK1(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want1, err := static.UTK1(q)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprint(got1.Records), fmt.Sprint(global(want1.Records)); got != want {
					t.Fatalf("k=%d lo=%g: UTK1 %s, stateless %s", k, lo, got, want)
				}
				got2, err := ent.Engine.UTK2(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want2, err := static.UTK2(q)
				if err != nil {
					t.Fatal(err)
				}
				var gotSets, wantSets []string
				for _, c := range got2.Cells {
					gotSets = append(gotSets, fmt.Sprint(c.TopK))
				}
				for _, c := range want2.Cells {
					wantSets = append(wantSets, fmt.Sprint(global(c.TopK)))
				}
				sort.Strings(gotSets)
				sort.Strings(wantSets)
				if fmt.Sprint(gotSets) != fmt.Sprint(wantSets) {
					t.Fatalf("k=%d lo=%g: UTK2 top-k sets %v, stateless %v", k, lo, gotSets, wantSets)
				}
			}
		}
	}

	st, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Open(st, SnapshotPolicy{EveryOps: -1, EveryBytes: -1})
	if err != nil {
		t.Fatalf("open the parent-written directory: %v", err)
	}
	ent, err := reg.Get("fx")
	if err != nil {
		t.Fatal(err)
	}
	if d := ent.Durability(true); d.ReplayedBatches != 5 || d.LastSeq != 7 {
		t.Fatalf("replayed %d batches to seq %d, want 5 to 7", d.ReplayedBatches, d.LastSeq)
	}
	// The writer logged sums of per-shard epochs (4 at the checkpoint, 13 at
	// the end); replay's publish counter only reaches 8, and recovery must
	// hand clients the epoch they were last told, not an earlier one.
	if ep := ent.Engine.Stats().Epoch; ep != exp.Epoch {
		t.Fatalf("recovered epoch %d, want the writer's last logged %d", ep, exp.Epoch)
	}
	check(ent, exp.LiveIDs, exp.Records)

	// Two more batches in this commit's convention, then reopen: the WAL now
	// holds both conventions behind the old snapshot.
	top := []float64{0.995, 0.99, 0.985}
	res, err := reg.Update("fx", []utk.UpdateOp{
		{Kind: utk.UpdateInsert, Record: top},
		{Kind: utk.UpdateDelete, ID: exp.LiveIDs[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	liveIDs := append(append([]int(nil), exp.LiveIDs[1:]...), res.IDs[0])
	recs := append(append([][]float64(nil), exp.Records[1:]...), top)
	if _, err := reg.Update("fx", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.01, 0.02, 0.03}}}); err != nil {
		t.Fatal(err)
	}
	liveIDs = append(liveIDs, res.IDs[0]+1)
	recs = append(recs, []float64{0.01, 0.02, 0.03})
	wantEpoch := ent.Engine.Stats().Epoch
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg, err = Open(st, SnapshotPolicy{EveryOps: -1, EveryBytes: -1})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	if ent, err = reg.Get("fx"); err != nil {
		t.Fatal(err)
	}
	if ep := ent.Engine.Stats().Epoch; ep != wantEpoch {
		t.Fatalf("second reopen: epoch %d, want %d", ep, wantEpoch)
	}
	check(ent, liveIDs, recs)
}
