package utk

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/oracle"
)

func diffRegion(t *testing.T, rng *rand.Rand, dim int) *Region {
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

// diffBackends are the engines the backend differentials run against: one
// built over the records, and ones reopened from a legacy snapshot of two and
// three parts (see partsEngine).
var diffBackends = []struct {
	name  string
	parts int
}{{"single", 1}, {"sharded2", 2}, {"sharded3", 3}}

// diffCase is one configuration of the serving-stack differentials: the
// records, the query, and the direct Dataset answers every backend must
// reproduce.
type diffCase struct {
	name    string
	records [][]float64
	ds      *Dataset
	q       Query
	seq1    *UTK1Result
	seqSets map[string]bool
}

// diffCases builds one case per dimension, d = 2–5 (2 and 4 under -short).
func diffCases(t *testing.T) []diffCase {
	t.Helper()
	dims := []int{2, 3, 4, 5}
	if testing.Short() {
		dims = []int{2, 4}
	}
	var out []diffCase
	for _, d := range dims {
		rng := rand.New(rand.NewSource(int64(4200 + d)))
		records := dataset.Synthetic(dataset.IND, 260, d, int64(50+d))
		ds, err := NewDataset(records)
		if err != nil {
			t.Fatal(err)
		}
		r := diffRegion(t, rng, d-1)
		k := 2 + rng.Intn(4)
		q := Query{K: k, Region: r}
		seq1, err := ds.UTK1(q)
		if err != nil {
			t.Fatal(err)
		}
		seq2, err := ds.UTK2(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffCase{
			name:    fmt.Sprintf("seed=%d/d=%d/k=%d", 4200+d, d, k),
			records: records, ds: ds, q: q,
			seq1: seq1, seqSets: topKSetStrings(seq2),
		})
	}
	return out
}

// query asks e the case's UTK1 and UTK2 questions and returns the first way
// the answers differ from the dataset run or the oracle. It does not touch
// t, so concurrent clients may call it.
func (c *diffCase) query(e *Engine) error {
	ctx := context.Background()
	got1, err := e.UTK1(ctx, c.q)
	if err != nil {
		return err
	}
	if fmt.Sprint(got1.Records) != fmt.Sprint(c.seq1.Records) {
		return fmt.Errorf("UTK1 = %v, dataset run = %v", got1.Records, c.seq1.Records)
	}
	got2, err := e.UTK2(ctx, c.q)
	if err != nil {
		return err
	}
	if fmt.Sprint(utk2Union(got2)) != fmt.Sprint(c.seq1.Records) {
		return fmt.Errorf("UTK2 union %v != UTK1 %v", utk2Union(got2), c.seq1.Records)
	}
	gotSets := topKSetStrings(got2)
	if len(gotSets) != len(c.seqSets) {
		return fmt.Errorf("unique top-k sets: %d vs dataset run %d", len(gotSets), len(c.seqSets))
	}
	for s := range gotSets {
		if !c.seqSets[s] {
			return fmt.Errorf("top-k set %s missing from the dataset run's partitioning", s)
		}
	}
	for i, cell := range got2.Cells {
		want := oracle.TopKAt(c.records, cell.Interior, c.q.K)
		if fmt.Sprint(cell.TopK) != fmt.Sprint(want) {
			return fmt.Errorf("cell %d at %v: top-k %v, oracle %v", i, cell.Interior, cell.TopK, want)
		}
	}
	return nil
}

// TestBackendDifferential is the serving-stack differential: for d = 2–5,
// every backend must answer exactly like the direct Dataset run — identical
// UTK1 id sets, identical unique top-k sets for UTK2, and every cell's top-k
// set confirmed by the oracle at its interior point.
func TestBackendDifferential(t *testing.T) {
	for _, c := range diffCases(t) {
		for _, b := range diffBackends {
			t.Run(c.name+"/"+b.name, func(t *testing.T) {
				e := partsEngine(t, c.ds, b.parts, EngineConfig{MaxK: c.q.K + 2})
				if err := c.query(e); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestParallelDifferential is the backend differential under concurrent
// load: each backend gets a cold engine that computes W queries at a
// time, and W clients ask it the same UTK1 and UTK2 questions at once. Every
// client must get the dataset run's answer whether it computed the miss or
// hit the cache, at once or after waiting for a slot.
func TestParallelDifferential(t *testing.T) {
	workerSweep := []int{1, 2, 4, 8}
	if testing.Short() {
		workerSweep = []int{1, 4}
	}
	for _, c := range diffCases(t) {
		for _, b := range diffBackends {
			for _, workers := range workerSweep {
				t.Run(fmt.Sprintf("%s/%s/W=%d", c.name, b.name, workers), func(t *testing.T) {
					e := partsEngine(t, c.ds, b.parts, EngineConfig{MaxK: c.q.K + 2, Workers: workers})
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for i := range errs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							errs[i] = c.query(e)
						}()
					}
					wg.Wait()
					for i, err := range errs {
						if err != nil {
							t.Fatalf("client %d: %v", i, err)
						}
					}
				})
			}
		}
	}
}
