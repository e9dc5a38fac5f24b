package utk_test

// Sustained-update streaming benchmark: the internal/stream harness drives
// concurrent ApplyBatch churn against live UTK1/UTK2 queriers and reports
// update throughput plus query latency percentiles. cmd/utkstream runs the
// same harness standalone. This file is
// an external test package because the harness imports the root package.

import (
	"testing"
	"time"

	"repro/internal/stream"
)

// BenchmarkStreamSustained applies b.N update batches while 4 queriers churn.
// ns/op is the whole-run wall time per batch (including setup, which
// amortizes away at real b.N); the headline numbers are the reported
// updates/s and query percentile metrics.
func BenchmarkStreamSustained(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single", 1}, {"shards=3", 3}} {
		b.Run(tc.name, func(b *testing.B) {
			res, err := stream.Run(stream.Config{
				N: 20000, Dim: 4, K: 10, Shards: tc.shards,
				BatchSize: 32, ChurnPairs: 4, Queriers: 4,
				Batches: b.N, Seed: 11,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.CoalescedOps == 0 {
				b.Fatal("churn pairs did not exercise coalescing")
			}
			b.ReportMetric(res.UpdatesPerSec, "updates/s")
			b.ReportMetric(float64(res.QueryP50), "q-p50-ns")
			b.ReportMetric(float64(res.QueryP99), "q-p99-ns")
		})
	}
	// Large-population variants (250k points) compare blocking against
	// pipelined batch apply: pipelined ns/op measures only the blocking begin
	// stage, the quantity the PR's pipelining exists to shrink.
	for _, tc := range []struct {
		name      string
		pipelined bool
	}{{"n=250k/blocking", false}, {"n=250k/pipelined", true}} {
		b.Run(tc.name, func(b *testing.B) {
			res, err := stream.Run(stream.Config{
				N: 250_000, Dim: 4, K: 10,
				BatchSize: 64, ChurnPairs: 4, Queriers: 4,
				Batches: b.N, Seed: 11, Pipelined: tc.pipelined,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.CoalescedOps == 0 {
				b.Fatal("churn pairs did not exercise coalescing")
			}
			b.ReportMetric(res.UpdatesPerSec, "updates/s")
			b.ReportMetric(float64(res.UpdateP50), "u-p50-ns")
			b.ReportMetric(float64(res.UpdateP99), "u-p99-ns")
			b.ReportMetric(float64(res.QueryP50), "q-p50-ns")
			b.ReportMetric(float64(res.QueryP99), "q-p99-ns")
		})
	}
}

// TestStreamHarness pins the harness's own accounting: batch counts,
// deterministic coalescing (a single updater predicts insert ids exactly, so
// every churn pair folds), and the read-only mode used as the latency
// baseline.
func TestStreamHarness(t *testing.T) {
	const batches, pairs = 30, 4
	res, err := stream.Run(stream.Config{
		N: 3000, Dim: 3, K: 6,
		Batches: batches, BatchSize: 24, ChurnPairs: pairs,
		Queriers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != batches {
		t.Fatalf("applied %d batches, want %d", res.Batches, batches)
	}
	if res.Queries == 0 {
		t.Fatal("queriers completed no queries")
	}
	if want := uint64(batches * 2 * pairs); res.Stats.CoalescedOps != want {
		t.Fatalf("coalesced ops = %d, want %d (every pair must fold)", res.Stats.CoalescedOps, want)
	}
	if res.Stats.UpdateBatches != batches {
		t.Fatalf("engine saw %d batches, want %d", res.Stats.UpdateBatches, batches)
	}

	ro, err := stream.Run(stream.Config{
		N: 3000, Dim: 3, K: 6,
		ReadOnly: true, Duration: 100 * time.Millisecond,
		Queriers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ro.Batches != 0 || ro.Stats.UpdateBatches != 0 {
		t.Fatalf("read-only run applied updates: %d/%d", ro.Batches, ro.Stats.UpdateBatches)
	}
	if ro.Queries == 0 {
		t.Fatal("read-only run completed no queries")
	}
}
