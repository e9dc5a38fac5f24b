package rtree

import (
	"math/rand"
	"sort"
	"testing"
)

func randomPoints(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestBulkLoadInvariantsAndCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 63, 64, 65, 1000, 5000} {
		pts := randomPoints(rng, n, 3)
		tree, err := BulkLoad(pts, 16)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tree.Len())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ids := tree.Search([]float64{0, 0, 0}, []float64{1, 1, 1})
		if len(ids) != n {
			t.Fatalf("n=%d: full-window search returned %d", n, len(ids))
		}
	}
}

func TestBulkLoadErrors(t *testing.T) {
	if _, err := BulkLoad(nil, 16); err == nil {
		t.Fatal("empty bulk load should fail")
	}
	if _, err := BulkLoad([][]float64{{1, 2}, {1}}, 16); err == nil {
		t.Fatal("ragged points should fail")
	}
	if _, err := BulkLoad([][]float64{{}}, 16); err == nil {
		t.Fatal("zero dimension should fail")
	}
	if _, err := BulkLoad([][]float64{{1, 2}}, 2); err == nil {
		t.Fatal("tiny fanout should fail")
	}
}

func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 2000, 2)
	tree, err := BulkLoad(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lo := []float64{rng.Float64() * 0.8, rng.Float64() * 0.8}
		hi := []float64{lo[0] + rng.Float64()*0.2, lo[1] + rng.Float64()*0.2}
		got := tree.Search(lo, hi)
		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if p[0] >= lo[0] && p[0] <= hi[0] && p[1] >= lo[1] && p[1] <= hi[1] {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result mismatch", trial)
			}
		}
	}
}

func TestHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 10000, 2)
	tree, _ := BulkLoad(pts, 16)
	h := tree.Height()
	if h < 3 || h > 5 {
		t.Fatalf("height = %d for 10k points at fanout 16", h)
	}
}
