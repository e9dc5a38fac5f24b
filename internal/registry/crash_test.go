package registry

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/store"
)

// genBatches builds a deterministic randomized op stream against a simulated
// id space: inserts draw fresh ids sequentially (matching the engine's
// assignment), deletes pick a live id. The stream is engine-independent, so
// the same prefix can be replayed into any number of reference engines.
func genBatches(rng *rand.Rand, n, dim, startID, batches int) [][]engine.UpdateOp {
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	nextID := startID
	out := make([][]engine.UpdateOp, batches)
	for bi := range out {
		nops := 1 + rng.Intn(4)
		ops := make([]engine.UpdateOp, 0, nops)
		for len(ops) < nops {
			if rng.Intn(3) > 0 || len(live) < 10 {
				rec := make([]float64, dim)
				for j := range rec {
					rec[j] = rng.Float64()
				}
				ops = append(ops, engine.UpdateOp{Kind: engine.UpdateInsert, Record: rec})
				live = append(live, nextID)
				nextID++
			} else {
				vi := rng.Intn(len(live))
				ops = append(ops, engine.UpdateOp{Kind: engine.UpdateDelete, ID: live[vi]})
				live[vi] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		out[bi] = ops
	}
	return out
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// answers probes an engine with a fixed set of queries, canonicalizing UTK1
// id sets and the multiset of UTK2 top-k sets.
func answers(t *testing.T, eng *engine.Engine, dim int) string {
	t.Helper()
	var sb strings.Builder
	for qi, lo0 := range []float64{0.05, 0.2, 0.4} {
		rd := dim - 1
		lo := make([]float64, rd)
		hi := make([]float64, rd)
		for j := range lo {
			lo[j] = lo0 / float64(rd)
			hi[j] = lo[j] + 0.08
		}
		region, err := geom.NewBox(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ids := ask(t, eng, engine.UTK1, 3, region).IDs
		fmt.Fprintf(&sb, "q%d utk1=%v\n", qi, ids)
		r2 := ask(t, eng, engine.UTK2, 3, region)
		cells := make([]string, len(r2.Cells))
		for i, c := range r2.Cells {
			cells[i] = fmt.Sprint(c.TopK)
		}
		sort.Strings(cells)
		fmt.Fprintf(&sb, "q%d utk2=%v\n", qi, cells)
	}
	return sb.String()
}

// TestCrashRecoveryDifferential hard-cuts the WAL at random byte offsets
// mid-stream and checks that reopening recovers an engine identical — same
// epoch, same live population, same UTK1/UTK2 answers — to a never-crashed
// engine that applied exactly the surviving prefix of acknowledged batches,
// and that both engines continue identically when the remaining batches are
// applied after recovery.
func TestCrashRecoveryDifferential(t *testing.T) { t.Run("shards=1", crashDifferential) }

func crashDifferential(t *testing.T) {
	const (
		n, dim   = 80, 3
		nBatches = 30
		nCuts    = 8
	)
	recs := dataset.Synthetic(dataset.IND, n, dim, 7)
	opts := Options{MaxK: 4}
	pol := SnapshotPolicy{EveryOps: 23} // force snapshots mid-stream

	dir := t.TempDir()
	st, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewWithStore(st, pol)
	if _, err := reg.Create("ds", recs, opts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1001))
	batches := genBatches(rng, n, dim, n, nBatches)
	for i, ops := range batches {
		if _, err := reg.Update("ds", ops); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// reference builds a never-crashed engine holding the first m batches.
	reference := func(m uint64) *engine.Engine {
		ref := New()
		if _, err := ref.Create("ref", recs, opts); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < m; i++ {
			if _, err := ref.Update("ref", batches[i]); err != nil {
				t.Fatalf("reference batch %d: %v", i+1, err)
			}
		}
		ent, err := ref.Get("ref")
		if err != nil {
			t.Fatal(err)
		}
		return ent.Engine
	}

	for cut := 0; cut < nCuts; cut++ {
		cutDir := t.TempDir()
		copyTree(t, dir, cutDir)
		segs, err := filepath.Glob(filepath.Join(cutDir, "datasets", "ds", "wal-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("wal segments: %v, %v", segs, err)
		}
		sort.Strings(segs)
		// Cut a random segment at a random byte offset; everything after the
		// cut (including later segments) must vanish atomically.
		si := rng.Intn(len(segs))
		info, err := os.Stat(segs[si])
		if err != nil {
			t.Fatal(err)
		}
		off := rng.Int63n(info.Size() + 1)
		if err := os.Truncate(segs[si], off); err != nil {
			t.Fatal(err)
		}

		cst, err := store.OpenFile(cutDir, store.FileConfig{Sync: store.SyncNever})
		if err != nil {
			t.Fatalf("cut %d: open store: %v", cut, err)
		}
		creg, err := Open(cst, pol)
		if err != nil {
			t.Fatalf("cut %d (seg %d off %d): open registry: %v", cut, si, off, err)
		}
		ent, err := creg.Get("ds")
		if err != nil {
			t.Fatalf("cut %d: recovered dataset missing: %v", cut, err)
		}
		m := ent.Durability(true).LastSeq
		if m > uint64(nBatches) {
			t.Fatalf("cut %d: recovered seq %d beyond stream length %d", cut, m, nBatches)
		}
		ref := reference(m)

		refStats, gotStats := ref.Stats(), ent.Engine.Stats()
		if refStats.Epoch != gotStats.Epoch {
			t.Fatalf("cut %d (prefix %d): epoch %d, reference %d", cut, m, gotStats.Epoch, refStats.Epoch)
		}
		if refStats.Live != gotStats.Live {
			t.Fatalf("cut %d (prefix %d): live %d, reference %d", cut, m, gotStats.Live, refStats.Live)
		}
		if got, want := answers(t, ent.Engine, dim), answers(t, ref, dim); got != want {
			t.Fatalf("cut %d (prefix %d): answers diverge\nrecovered:\n%s\nreference:\n%s", cut, m, got, want)
		}

		// The recovered engine must keep accepting the rest of the stream and
		// stay identical to the reference.
		for i := m; i < uint64(nBatches); i++ {
			if _, err := creg.Update("ds", batches[i]); err != nil {
				t.Fatalf("cut %d: post-recovery batch %d: %v", cut, i+1, err)
			}
			if _, err := ref.ApplyBatch(batches[i]); err != nil {
				t.Fatalf("cut %d: reference post-recovery batch %d: %v", cut, i+1, err)
			}
		}
		if got, want := answers(t, ent.Engine, dim), answers(t, ref, dim); got != want {
			t.Fatalf("cut %d: answers diverge after resuming the stream\nrecovered:\n%s\nreference:\n%s", cut, got, want)
		}
		cst.Close()
	}
}
