package shard_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
)

// benchRegion is a narrow 3-dim preference box, matching the paper's typical
// query shapes on d=4 data.
func benchRegion(b *testing.B) *geom.Region {
	b.Helper()
	r, err := geom.NewBox([]float64{0.2, 0.2, 0.2}, []float64{0.23, 0.23, 0.23})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkWarmQuery measures what a partitioned band costs the warm query
// path on 10k points: caches are disabled, so every iteration pays the
// region-aware filter over the depth-k prefix of the engine's published index
// and the exact refinement. shards=1single is the
// engine over one skyband.Dynamic; shards=1..4 run over a shard.Band.
func BenchmarkWarmQuery(b *testing.B) {
	const (
		n    = 10000
		d    = 4
		maxK = 10
		k    = 5
	)
	recs := dataset.Synthetic(dataset.IND, n, d, 1)
	region := benchRegion(b)
	req := engine.Request{Variant: engine.UTK1, K: k, Region: region}
	ctx := context.Background()

	b.Run("shards=1single", func(b *testing.B) {
		e, err := engine.New(recs, engine.Config{MaxK: maxK})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Do(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, S := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", S), func(b *testing.B) {
			sh, err := engine.NewPartitioned(recs, S, engine.Config{MaxK: maxK})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sh.Do(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedUpdate measures updates through a partitioned band. insert
// is a deep record: only the owning part's band is consulted, so cost should
// track the single-engine insert path regardless of S. bandchange inserts a
// record into the global band and deletes it again, so every iteration pays
// the union→global-band reduction twice at the begin stage; bandchange+query
// asks an uncached query after each of the two updates, the interleaving
// under which the reduction used to be paid by the queries instead.
func BenchmarkShardedUpdate(b *testing.B) {
	const (
		n    = 10000
		d    = 4
		maxK = 10
	)
	recs := dataset.Synthetic(dataset.IND, n, d, 1)
	for _, S := range []int{1, 4} {
		b.Run(fmt.Sprintf("insert/shards=%d", S), func(b *testing.B) {
			sh, err := engine.NewPartitioned(recs, S, engine.Config{MaxK: maxK})
			if err != nil {
				b.Fatal(err)
			}
			rec := []float64{0.5, 0.5, 0.5, 0.5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.Insert(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bandchange/shards=%d", S), func(b *testing.B) {
			sh, err := engine.NewPartitioned(recs, S, engine.Config{MaxK: maxK})
			if err != nil {
				b.Fatal(err)
			}
			rec := []float64{0.99, 0.99, 0.99, 0.99}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := sh.Insert(rec)
				if err != nil {
					b.Fatal(err)
				}
				if err := sh.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bandchange+query/shards=%d", S), func(b *testing.B) {
			sh, err := engine.NewPartitioned(recs, S, engine.Config{MaxK: maxK})
			if err != nil {
				b.Fatal(err)
			}
			rec := []float64{0.99, 0.99, 0.99, 0.99}
			req := engine.Request{Variant: engine.UTK1, K: 5, Region: benchRegion(b)}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := sh.Insert(rec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sh.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
				if err := sh.Delete(id); err != nil {
					b.Fatal(err)
				}
				if _, err := sh.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
