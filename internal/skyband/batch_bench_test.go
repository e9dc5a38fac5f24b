package skyband

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// benchStreamOps mirrors the streaming harness's 250k-point churn mix:
// batches of 64 ops, roughly balanced inserts and deletes over a steady live
// set.
func benchStreamOps(rng *rand.Rand, live *[]int, dim, size int) []Op {
	ops := make([]Op, 0, size)
	for len(ops) < size {
		if rng.Intn(2) == 0 && len(*live) > 0 {
			x := rng.Intn(len(*live))
			ops = append(ops, Op{ID: (*live)[x]})
			(*live)[x] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
			continue
		}
		rec := make([]float64, dim)
		for t := range rec {
			rec[t] = rng.Float64()
		}
		ops = append(ops, Op{Insert: true, Record: rec})
	}
	return ops
}

// BenchmarkApplyOpsBatch64 is the commit-stage band-maintenance cost on the
// 250k preset's shape: one ApplyOps call per 64-op batch. The per-batch
// percentiles are the hand-run tail probe next to the mean.
func BenchmarkApplyOpsBatch64(b *testing.B) {
	n := 250_000
	if testing.Short() {
		n = 50_000
	}
	d, err := NewDynamic(dataset.Synthetic(dataset.IND, n, 4, 1), 10)
	if err != nil {
		b.Fatal(err)
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	rng := rand.New(rand.NewSource(2))
	lat := make([]uint64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := benchStreamOps(rng, &live, 4, 64)
		before := d.stats.BandMaintenanceNS
		ids, _, err := d.ApplyOps(ops)
		if err != nil {
			b.Fatal(err)
		}
		lat = append(lat, d.stats.BandMaintenanceNS-before)
		for j, op := range ops {
			if op.Insert {
				live = append(live, ids[j])
			}
		}
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2]), "p50-batch-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-batch-ns")
	b.ReportMetric(float64(lat[len(lat)-1]), "max-batch-ns")
}

// BenchmarkApplyOpsUpdateMix is the commit-stage band-maintenance cost of the
// bench's update_mix batch: over IND n = 10k, d = 4, K = 10, each batch
// deletes 16 uniformly chosen live records and inserts 16 uniform ones.
func BenchmarkApplyOpsUpdateMix(b *testing.B) {
	const n, half = 10_000, 16
	d, err := NewDynamic(dataset.Synthetic(dataset.IND, n, 4, 20180801), 10)
	if err != nil {
		b.Fatal(err)
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	rng := rand.New(rand.NewSource(2))
	lat := make([]uint64, 0, b.N)
	ops := make([]Op, 2*half)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range half {
			x := rng.Intn(len(live))
			ops[j] = Op{ID: live[x]}
			live[x] = live[len(live)-1]
			live = live[:len(live)-1]
			rec := make([]float64, 4)
			for t := range rec {
				rec[t] = rng.Float64()
			}
			ops[half+j] = Op{Insert: true, Record: rec}
		}
		before := d.stats.BandMaintenanceNS
		ids, _, err := d.ApplyOps(ops)
		if err != nil {
			b.Fatal(err)
		}
		lat = append(lat, d.stats.BandMaintenanceNS-before)
		live = append(live, ids[half:]...)
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2]), "p50-batch-ns")
	b.ReportMetric(float64(lat[len(lat)*95/100]), "p95-batch-ns")
}
