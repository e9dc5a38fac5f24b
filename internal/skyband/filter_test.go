package skyband

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

func filterBox(tb testing.TB, rng *rand.Rand, dim int) *geom.Region {
	tb.Helper()
	for {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		sum := 0.0
		for i := range lo {
			lo[i] = rng.Float64() * 0.5 / float64(dim)
			hi[i] = lo[i] + 0.02 + rng.Float64()*0.2/float64(dim)
			sum += lo[i]
		}
		if sum >= 0.9 {
			continue
		}
		r, err := geom.NewBox(lo, hi)
		if err == nil {
			return r
		}
	}
}

// TestBuildGraphPrefilterEquivalence pins that the interval-seeded BBS
// produces the identical r-dominance graph as the plain dominance-only
// search: pruning only ever removes records with k proven r-dominators, so
// the exact r-skyband — and everything NewGraph derives from it — is
// unchanged.
func TestBuildGraphPrefilterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		d := 2 + trial%4
		data := make([][]float64, 400)
		for i := range data {
			rec := make([]float64, d)
			for j := range rec {
				rec[j] = rng.Float64() * 10
			}
			data[i] = rec
		}
		tree, err := rtree.BulkLoad(data, 8)
		if err != nil {
			t.Fatal(err)
		}
		r := filterBox(t, rng, d-1)
		k := 1 + rng.Intn(8)
		t.Run(fmt.Sprintf("seed=77/trial=%d/d=%d/k=%d", trial, d, k), func(t *testing.T) {
			with := buildGraph(tree, r, k, true)
			without := buildGraph(tree, r, k, false)
			if with.Len() != without.Len() {
				t.Fatalf("prefilter changed the r-skyband: %d vs %d members", with.Len(), without.Len())
			}
			for i := 0; i < with.Len(); i++ {
				if with.IDs[i] != without.IDs[i] {
					t.Fatalf("member %d: id %d vs %d", i, with.IDs[i], without.IDs[i])
				}
				if with.Anc[i].Count() != without.Anc[i].Count() {
					t.Fatalf("member %d: dominator count %d vs %d", i, with.Anc[i].Count(), without.Anc[i].Count())
				}
			}
		})
	}
}

// BenchmarkFilterPrefilter mirrors the paper's Figure 10(a) filter
// comparison on the tree-backed cold path: the r-skyband graph construction
// with and without the interval prefilter seeding the BBS bound, next to the
// classic k-skyband filter it replaces.
func BenchmarkFilterPrefilter(b *testing.B) {
	data := dataset.Synthetic(dataset.IND, 50000, 4, 1)
	tree, err := rtree.BulkLoad(data, rtree.DefaultFanout)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	r := filterBox(b, rng, 3)
	b.Run("k-skyband", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KSkyband(tree, 10)
		}
	})
	b.Run("rskyband-graph/prefilter=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildGraph(tree, r, 10, false)
		}
	})
	b.Run("rskyband-graph/prefilter=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildGraph(tree, r, 10, true)
		}
	})
}
