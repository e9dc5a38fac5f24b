package utk

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/oracle"
)

func parallelRegion(t *testing.T, rng *rand.Rand, dim int) *Region {
	t.Helper()
	for {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		sum := 0.0
		for i := range lo {
			lo[i] = rng.Float64() * 0.4 / float64(dim)
			hi[i] = lo[i] + 0.05 + rng.Float64()*0.25/float64(dim)
			sum += lo[i]
		}
		if sum >= 0.9 {
			continue
		}
		r, err := NewBoxRegion(lo, hi)
		if err == nil {
			return r
		}
	}
}

func topKSetStrings(res *UTK2Result) map[string]bool {
	out := map[string]bool{}
	for _, c := range res.Cells {
		out[fmt.Sprint(c.TopK)] = true
	}
	return out
}

func utk2Union(res *UTK2Result) []int {
	seen := map[int]bool{}
	for _, c := range res.Cells {
		for _, id := range c.TopK {
			seen[id] = true
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// parallelBackends are the engines the decomposition differential runs
// against: one built over the records, and ones reopened from a legacy
// snapshot of two and three parts (see partsEngine).
var parallelBackends = []struct {
	name  string
	parts int
}{{"single", 1}, {"sharded2", 2}, {"sharded3", 3}}

// TestParallelDifferential is the serving-stack decomposition differential:
// for d = 2–5 and W = 1–8, every backend must answer a Workers=W query
// exactly like the direct sequential Dataset run —
// identical UTK1 id sets, identical unique top-k sets for UTK2, and every
// parallel cell's top-k set confirmed by the oracle at its interior point.
func TestParallelDifferential(t *testing.T) {
	dims := []int{2, 3, 4, 5}
	workerSweep := []int{1, 2, 4, 8}
	if testing.Short() {
		dims = []int{2, 4}
		workerSweep = []int{1, 4}
	}
	for _, d := range dims {
		d := d
		rng := rand.New(rand.NewSource(int64(4200 + d)))
		records := dataset.Synthetic(dataset.IND, 260, d, int64(50+d))
		ds, err := NewDataset(records)
		if err != nil {
			t.Fatal(err)
		}
		r := parallelRegion(t, rng, d-1)
		k := 2 + rng.Intn(4)
		seq1, err := ds.UTK1(Query{K: k, Region: r})
		if err != nil {
			t.Fatal(err)
		}
		seq2, err := ds.UTK2(Query{K: k, Region: r})
		if err != nil {
			t.Fatal(err)
		}
		seqSets := topKSetStrings(seq2)
		ctx := context.Background()
		for _, b := range parallelBackends {
			e := partsEngine(t, ds, b.parts, EngineConfig{MaxK: k + 2})
			for _, workers := range workerSweep {
				workers := workers
				t.Run(fmt.Sprintf("seed=%d/d=%d/k=%d/%s/W=%d", 4200+d, d, k, b.name, workers), func(t *testing.T) {
					q := Query{K: k, Region: r, Workers: workers}
					got1, err := e.UTK1(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got1.Records) != fmt.Sprint(seq1.Records) {
						t.Fatalf("UTK1 = %v, sequential dataset run = %v", got1.Records, seq1.Records)
					}
					got2, err := e.UTK2(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(utk2Union(got2)) != fmt.Sprint(seq1.Records) {
						t.Fatalf("UTK2 union %v != UTK1 %v", utk2Union(got2), seq1.Records)
					}
					gotSets := topKSetStrings(got2)
					if len(gotSets) != len(seqSets) {
						t.Fatalf("unique top-k sets: %d vs sequential %d", len(gotSets), len(seqSets))
					}
					for s := range gotSets {
						if !seqSets[s] {
							t.Fatalf("top-k set %s missing from the sequential partitioning", s)
						}
					}
					for i, c := range got2.Cells {
						want := oracle.TopKAt(records, c.Interior, k)
						if fmt.Sprint(c.TopK) != fmt.Sprint(want) {
							t.Fatalf("cell %d at %v: top-k %v, oracle %v", i, c.Interior, c.TopK, want)
						}
					}
					if workers > 1 && got2.Stats.Candidates > k && !got2.CacheHit && got2.Stats.EffectiveWorkers != workers {
						t.Errorf("EffectiveWorkers = %d, want %d", got2.Stats.EffectiveWorkers, workers)
					}
				})
			}
		}
	}
}
