package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// TestBulkLoadDuplicates bulk-loads a duplicate-heavy set — 3-d points on a
// 1/8 grid, each drawn many times over — twice: the STR sorts break
// coordinate ties by id, so both trees must be identical, valid, and answer
// window searches exactly like a linear scan.
func TestBulkLoadDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 3000, 3)
	for _, p := range pts {
		for j := range p {
			p[j] = math.Floor(p[j]*8) / 8
		}
	}
	shape := func(tree *Tree) string {
		var b strings.Builder
		var walk func(n *Node)
		walk = func(n *Node) {
			for _, e := range n.Entries() {
				fmt.Fprint(&b, e.Min, e.Max, e.RecordID)
				if !n.Leaf() {
					b.WriteString("(")
					walk(e.Child)
					b.WriteString(")")
				}
			}
		}
		walk(tree.Root())
		return b.String()
	}
	a, err := BulkLoad(pts, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BulkLoad(pts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if shape(a) != shape(b) {
		t.Fatal("two bulk loads of the same points built different trees")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lo, hi := make([]float64, 3), make([]float64, 3)
		for j := range lo {
			lo[j] = math.Floor(rng.Float64()*8) / 8
			hi[j] = lo[j] + math.Floor(rng.Float64()*4)/8
		}
		got := a.Search(lo, hi)
		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if p[0] >= lo[0] && p[0] <= hi[0] && p[1] >= lo[1] && p[1] <= hi[1] && p[2] >= lo[2] && p[2] <= hi[2] {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: window [%v, %v] found %d points, a linear scan %d", trial, lo, hi, len(got), len(want))
		}
	}
}
