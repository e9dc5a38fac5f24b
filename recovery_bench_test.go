package utk_test

// BenchmarkRecovery quantifies the point of snapshots: reopening a durable
// dataset (decode snapshot + replay the WAL tail) versus rebuilding the
// engine cold (k-skyband computation over all the records + reapplying the
// update stream) on IND d=4 at 50k, 250k and 1m records. It lives in an
// external test package because the registry/store layers import the root
// package.

import (
	"fmt"
	"math/rand"
	"testing"

	utk "repro"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/store"
)

func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{50_000, 250_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRecovery(b, n) })
	}
}

func benchRecovery(b *testing.B, n int) {
	const (
		d    = 4
		maxK = 10
		tail = 16 // WAL batches past the last snapshot
	)
	recs := dataset.Synthetic(dataset.IND, n, d, 1)
	opts := registry.Options{MaxK: maxK}
	// Disable auto-snapshots so the tail stays exactly `tail` batches long.
	pol := registry.SnapshotPolicy{EveryOps: -1}

	dir := b.TempDir()
	st, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.NewWithStore(st, pol)
	if _, err := reg.Create("ds", recs, opts); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	batches := make([][]utk.UpdateOp, tail)
	for i := range batches {
		rec := make([]float64, d)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		batches[i] = []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: rec}}
		if _, err := reg.Update("ds", batches[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("reopen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			reg, err := registry.Open(st, pol)
			if err != nil {
				b.Fatal(err)
			}
			ent, err := reg.Get("ds")
			if err != nil {
				b.Fatal(err)
			}
			if live := ent.Engine.Stats().Live; live != n+tail {
				b.Fatalf("recovered live = %d, want %d", live, n+tail)
			}
			st.Close()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := utk.NewEngine(recs, utk.EngineConfig{MaxK: maxK})
			if err != nil {
				b.Fatal(err)
			}
			for _, ops := range batches {
				if _, err := e.ApplyBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
			if live := e.Stats().Live; live != n+tail {
				b.Fatalf("rebuilt live = %d, want %d", live, n+tail)
			}
		}
	})
}
