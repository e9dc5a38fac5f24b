package skyband

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

func scanTestData(t *testing.T, n, d int, seed int64) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]float64, n)
	for i := range recs {
		rec := make([]float64, d)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		recs[i] = rec
	}
	return recs
}

func graphRelation(g *Graph) map[string]bool {
	rel := map[string]bool{}
	for i := range g.Anc {
		g.Anc[i].ForEach(func(p int) bool {
			rel[fmt.Sprintf("%d>%d", g.IDs[p], g.IDs[i])] = true
			return true
		})
	}
	return rel
}

// TestScanGraphMatchesBuildGraph cross-validates the tree-free filter
// against the BBS pipeline on random data, box and polytope regions.
func TestScanGraphMatchesBuildGraph(t *testing.T) {
	for _, d := range []int{3, 4} {
		recs := scanTestData(t, 600, d, int64(d))
		tree, err := rtree.BulkLoad(recs, rtree.DefaultFanout)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(recs))
		for i := range ids {
			ids[i] = i
		}
		lo := make([]float64, d-1)
		hi := make([]float64, d-1)
		for i := range lo {
			lo[i] = 0.15
			hi[i] = 0.22
		}
		regions := []*geom.Region{}
		rbox, err := geom.NewBox(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, rbox)
		if d == 3 {
			rpoly, err := geom.NewPolytope(2, []geom.Halfspace{
				{A: []float64{1, 1}, B: 0.3},
				{A: []float64{-1, -1}, B: -0.5},
			})
			if err != nil {
				t.Fatal(err)
			}
			regions = append(regions, rpoly)
		}
		for ri, r := range regions {
			for _, k := range []int{1, 5, 15} {
				want := BuildGraph(tree, r, k)
				got := ScanGraph(recs, ids, r, k)
				wantIDs := append([]int(nil), want.IDs...)
				gotIDs := append([]int(nil), got.IDs...)
				sort.Ints(wantIDs)
				sort.Ints(gotIDs)
				if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
					t.Errorf("d=%d region=%d k=%d: member mismatch\n got %v\nwant %v", d, ri, k, gotIDs, wantIDs)
					continue
				}
				if fmt.Sprint(graphRelation(got)) != fmt.Sprint(graphRelation(want)) {
					t.Errorf("d=%d region=%d k=%d: r-dominance relation mismatch", d, ri, k)
				}
			}
		}
	}
}

// TestScanGraphDuplicates exercises the quantized-key tie path: exact
// duplicates and score ties must not change the graph relative to BBS.
func TestScanGraphDuplicates(t *testing.T) {
	base := scanTestData(t, 120, 3, 99)
	recs := append([][]float64{}, base...)
	for i := 0; i < 40; i++ { // heavy duplication
		recs = append(recs, append([]float64(nil), base[i]...))
	}
	tree, err := rtree.BulkLoad(recs, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(recs))
	for i := range ids {
		ids[i] = i
	}
	r, err := geom.NewBox([]float64{0.2, 0.25}, []float64{0.3, 0.35})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 8} {
		want := BuildGraph(tree, r, k)
		got := ScanGraph(recs, ids, r, k)
		wantIDs := append([]int(nil), want.IDs...)
		gotIDs := append([]int(nil), got.IDs...)
		sort.Ints(wantIDs)
		sort.Ints(gotIDs)
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			t.Errorf("k=%d: member mismatch with duplicates\n got %v\nwant %v", k, gotIDs, wantIDs)
		}
	}
}

// kthLargestBySort is the reference kLargest replaced: copy, sort, index.
func kthLargestBySort[T float32 | float64](vs []T, k int) (T, bool) {
	if len(vs) < k {
		return 0, false
	}
	s := append([]T(nil), vs...)
	slices.Sort(s)
	return s[len(s)-k], true
}

func checkKLargest[T float32 | float64](t *testing.T, vs []T, k int) {
	t.Helper()
	whole := newKLargest[T](k)
	whole.offer(vs...)
	single := newKLargest[T](k)
	for _, v := range vs {
		single.offer(v)
	}
	want, wantOK := kthLargestBySort(vs, k)
	for name, top := range map[string]kLargest[T]{"slice": whole, "one-by-one": single} {
		if got, ok := top.kth(); ok != wantOK || got != want {
			t.Fatalf("%s n=%d k=%d: kth = %v,%v, sort-and-index says %v,%v", name, len(vs), k, got, ok, want, wantOK)
		}
	}
}

// TestKLargestMatchesSort pins the bounded-selection helper to sort-and-index
// on random input with heavy ties, n below, at and above k, in both widths.
func TestKLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		n, k := rng.Intn(60), 1+rng.Intn(12)
		levels := 1 + rng.Intn(2*n+1) // few levels = many ties
		f64 := make([]float64, n)
		f32 := make([]float32, n)
		for i := range f64 {
			f64[i] = float64(rng.Intn(levels)) / 7
			f32[i] = float32(f64[i])
		}
		checkKLargest(t, f64, k)
		checkKLargest(t, f32, k)
	}
}

// TestScanGraphWithMatchesBuildGraphANTI is the engine's warm filter against
// the paper's BBS filter on the data that stresses the interval rule most:
// anti-correlated records (a large skyband, many near-equal scores) filtered
// at depths below the superset's MaxK, as the engine does: through a prefix
// view of the count-ordered superset's one layout.
func TestScanGraphWithMatchesBuildGraphANTI(t *testing.T) {
	const maxK = 10
	recs := dataset.Synthetic(dataset.ANTI, 3000, 4, 5)
	tree, err := rtree.BulkLoad(recs, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(recs, maxK)
	if err != nil {
		t.Fatal(err)
	}
	superIDs, super, counts := d.Band()
	cols := NewColumns(super)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		r := filterBox(t, rng, 3)
		for _, k := range []int{1, 4, 9} {
			n := sort.SearchInts(counts, k) // the k-skyband is the prefix [:n]
			if n == 0 || n == len(super) {
				t.Fatalf("k=%d: the prefix [:%d] of a %d-record superset is not a proper one", k, n, len(super))
			}
			want := BuildGraph(tree, r, k)
			got := ScanGraphWith(cols.Prefix(n), super[:n], superIDs[:n], r, k)
			wantIDs := append([]int(nil), want.IDs...)
			gotIDs := append([]int(nil), got.IDs...)
			sort.Ints(wantIDs)
			sort.Ints(gotIDs)
			if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
				t.Fatalf("trial %d k=%d: nodes differ\n got %v\nwant %v", trial, k, gotIDs, wantIDs)
			}
			if fmt.Sprint(graphRelation(got)) != fmt.Sprint(graphRelation(want)) {
				t.Fatalf("trial %d k=%d: edges differ", trial, k)
			}
		}
	}
}
