package dyntest

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDifferentialDynamicVsStatic is the property-based differential pass:
// random dimensionalities (2–5), cardinalities (50–500), depths, and
// hundreds of randomized update/query interleavings, each asserting that the
// incrementally maintained engine answers exactly like an engine rebuilt
// from scratch on the same logical dataset. Every scenario's parameters
// (including its seed) are in the subtest name, so a failure replays with
// -run.
func TestDifferentialDynamicVsStatic(t *testing.T) {
	trials, ops := 14, 28
	if testing.Short() {
		trials, ops = 5, 14
	}
	rng := rand.New(rand.NewSource(7001))
	for trial := 0; trial < trials; trial++ {
		cfg := Config{
			Seed: rng.Int63n(1 << 30),
			Dim:  2 + rng.Intn(4),
			N:    50 + rng.Intn(451),
			MaxK: 4 + rng.Intn(5),
			Ops:  ops,
		}
		// The draw of the retired ShadowDepth knob configures nothing any
		// more; it stays so the rng sequence — every later scenario — and the
		// subtest names are what they were.
		shadow := 0
		if rng.Intn(3) == 0 {
			shadow = 1 + rng.Intn(3)
		}
		name := fmt.Sprintf("seed%d_d%d_n%d_maxk%d_shadow%d", cfg.Seed, cfg.Dim, cfg.N, cfg.MaxK, shadow)
		t.Run(name, func(t *testing.T) { Run(t, cfg) })
	}
}

// TestDifferentialDeleteHeavy skews the interleaving toward deletions of
// band members — the path that exercises fence promotion and the re-cover
// pass.
func TestDifferentialDeleteHeavy(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		cfg := Config{
			Seed: 9000 + int64(trial),
			Dim:  2 + trial%3,
			N:    120,
			MaxK: 5,
			Ops:  24,
		}
		name := fmt.Sprintf("seed%d_d%d", cfg.Seed, cfg.Dim)
		t.Run(name, func(t *testing.T) { Run(t, cfg) })
	}
}
