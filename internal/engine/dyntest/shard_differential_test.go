package dyntest

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDifferentialShardedVsSingle is the partitioned-band federation proof:
// randomized workloads on an engine whose band is split S=1..4 ways, every
// answer compared against a single engine rebuilt from scratch over the same
// logical dataset — UTK1 id sets, UTK2 cell multisets, and a brute-force
// oracle probe at every cell interior — with single-op updates and multi-op
// atomic batches interleaved throughout, through a small result cache, and
// on alternating scenarios with the batches applied in two stages and a
// query overlapping each begin→commit window. Every scenario's parameters
// (including its seed) are in the subtest name, so a failure replays with
// -run.
func TestDifferentialShardedVsSingle(t *testing.T) {
	trials, ops := 12, 26
	if testing.Short() {
		trials, ops = 5, 14
	}
	rng := rand.New(rand.NewSource(4201))
	for trial := 0; trial < trials; trial++ {
		cfg := Config{
			Seed:   rng.Int63n(1 << 30),
			Dim:    2 + rng.Intn(4),
			N:      50 + rng.Intn(451),
			MaxK:   4 + rng.Intn(5),
			Ops:    ops,
			Shards: 1 + trial%4, // S cycles 1..4; S=1 is the unpartitioned engine
			Batch:  true,
			// Every S meets both apply modes over a full run.
			Pipelined: (trial+trial/4)%2 == 1,
		}
		// The retired ShadowDepth draw, kept for a stable rng sequence and
		// stable subtest names (see TestDifferentialDynamicVsStatic).
		shadow := 0
		if rng.Intn(3) == 0 {
			shadow = 1 + rng.Intn(3)
		}
		name := fmt.Sprintf("seed%d_d%d_n%d_maxk%d_shadow%d_s%d_pipe%v", cfg.Seed, cfg.Dim, cfg.N, cfg.MaxK, shadow, cfg.Shards, cfg.Pipelined)
		t.Run(name, func(t *testing.T) { Run(t, cfg) })
	}
}

// TestDifferentialShardedDeleteHeavy skews sharded interleavings toward
// deletions of band members, so per-part fence promotion, re-cover passes,
// and cache invalidation against the reduced global band all fire under the
// differential comparison.
func TestDifferentialShardedDeleteHeavy(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		cfg := Config{
			Seed:      11000 + int64(trial),
			Dim:       2 + trial%3,
			N:         120,
			MaxK:      5,
			Ops:       24,
			Shards:    2 + trial%3,
			Batch:     true,
			Pipelined: trial%2 == 1,
		}
		name := fmt.Sprintf("seed%d_d%d_s%d_pipe%v", cfg.Seed, cfg.Dim, cfg.Shards, cfg.Pipelined)
		t.Run(name, func(t *testing.T) { Run(t, cfg) })
	}
}

// TestDifferentialSingleWithBatches keeps the original single-engine
// backend but mixes multi-op atomic batches into the interleaving,
// covering the engine's batch-aware shared-snapshot invalidation (including
// delete-what-this-batch-inserted transients) under the same differential
// comparison.
func TestDifferentialSingleWithBatches(t *testing.T) {
	trials, ops := 8, 26
	if testing.Short() {
		trials, ops = 3, 14
	}
	rng := rand.New(rand.NewSource(5303))
	for trial := 0; trial < trials; trial++ {
		cfg := Config{
			Seed:  rng.Int63n(1 << 30),
			Dim:   2 + rng.Intn(4),
			N:     50 + rng.Intn(451),
			MaxK:  4 + rng.Intn(5),
			Ops:   ops,
			Batch: true,
		}
		name := fmt.Sprintf("seed%d_d%d_n%d_maxk%d", cfg.Seed, cfg.Dim, cfg.N, cfg.MaxK)
		t.Run(name, func(t *testing.T) { Run(t, cfg) })
	}
}
