package skyband

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// buildInput is one record set the constructor tests run on.
type buildInput struct {
	name string
	recs [][]float64
}

// buildInputs returns the three distributions at several dimensionalities,
// large enough that the grid is resized several times on the way, and the
// shapes that stress the cell map: ties and duplicates on a 2⁻⁸ grid, a
// constant coordinate, negative coordinates, and two ±1.7e308 outliers that
// squeeze every other record into one cell of the first two axes, whose
// spans overflow unless halved.
func buildInputs(n int) []buildInput {
	var ins []buildInput
	for _, kind := range []dataset.Kind{dataset.IND, dataset.ANTI, dataset.COR} {
		for _, dim := range []int{2, 3, 4, 6} {
			ins = append(ins, buildInput{fmt.Sprintf("%v/d=%d", kind, dim), dataset.Synthetic(kind, n, dim, int64(dim))})
		}
	}
	grid := snap(dataset.Synthetic(dataset.ANTI, n, 3, 7), 256)
	constant := dataset.Synthetic(dataset.IND, n, 4, 8)
	negative := dataset.Synthetic(dataset.ANTI, n, 4, 9)
	for i := range constant {
		constant[i][1] = 0.5
		for j := range negative[i] {
			negative[i][j] = 3*negative[i][j] - 2
		}
	}
	outlier := dataset.Synthetic(dataset.IND, n, 3, 10)
	outlier[n/2], outlier[n/3] = []float64{1.7e308, -1.7e308, 0.5}, []float64{-1.7e308, 1.7e308, 0.5}
	return append(ins,
		buildInput{"grid", append(grid, grid[:n/10]...)},
		buildInput{"constant", constant},
		buildInput{"negative", negative},
		buildInput{"outlier", outlier},
	)
}

// structure is what a build leaves behind that a rebuild must reproduce:
// the entry order and the cover column.
func structure(d *Dynamic) string {
	ids := make([]int, len(d.ents))
	for i, e := range d.ents {
		ids[i] = e.id
	}
	return fmt.Sprint(d.nb, ids, d.cover)
}

// TestBuildMatchesBruteForce checks the grid-pass construction against the
// O(n²) definition: CountBand's ids and counts are naiveKSkyband's with the
// brute-force counts, NewDynamic passes checkInvariants (band exact, the
// fence the skyline of the other records, every cover a dominator of its
// record), and the built structure — entry order and cover column included —
// is the same on a second build and at any GOMAXPROCS.
func TestBuildMatchesBruteForce(t *testing.T) {
	for _, in := range buildInputs(1200) {
		count := make([]int, len(in.recs))
		for i, q := range in.recs {
			for _, p := range in.recs {
				if geom.Dominates(p, q) {
					count[i]++
				}
			}
		}
		for _, k := range []int{1, 3, 10} {
			ctxt := fmt.Sprintf("%s/k=%d", in.name, k)
			idx, counts := CountBand(in.recs, k)
			want := naiveKSkyband(in.recs, k)
			if got := slices.Sorted(slices.Values(idx)); !slices.Equal(got, want) {
				t.Fatalf("%s: band of %d records, brute force %d", ctxt, len(got), len(want))
			}
			for i, id := range idx {
				if counts[i] != count[id] {
					t.Fatalf("%s: record %d counted %d, brute force %d", ctxt, id, counts[i], count[id])
				}
			}

			d, err := NewDynamic(in.recs, k)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, d, ctxt)
			first := structure(d)
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				again, err := NewDynamic(in.recs, k)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if structure(again) != first {
					t.Fatalf("%s: a rebuild at GOMAXPROCS=%d orders the entries or covers differently", ctxt, procs)
				}
			}
		}
	}
}

// TestBuildMatchesBBS pins the two band constructions to each other: BBS over
// a bulk-loaded R-tree (KSkyband) and the grid pass (CountBand), on the three
// distributions as drawn and snapped to 1/16 and 1/64 grids.
func TestBuildMatchesBBS(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.IND, dataset.ANTI, dataset.COR} {
		for _, grid := range []float64{0, 16, 64} {
			recs := snap(dataset.Synthetic(kind, 3000, 4, 3), grid)
			tree, err := rtree.BulkLoad(recs, rtree.DefaultFanout)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 10} {
				idx, _ := CountBand(recs, k)
				bbs := KSkyband(tree, k)
				if !slices.Equal(slices.Sorted(slices.Values(idx)), slices.Sorted(slices.Values(bbs))) {
					t.Fatalf("%v/grid=%v/k=%d: CountBand keeps %d records, BBS %d", kind, grid, k, len(idx), len(bbs))
				}
			}
		}
	}
}

// TestBandSumOverflow pins the sum gate where a coordinate sum overflows: it
// must let the pair through to geom.Dominates instead of rejecting it, at
// construction and under updates, for positive and negative overflow.
func TestBandSumOverflow(t *testing.T) {
	big := [][]float64{{1.7e308, 1.7e308}, {1e308, 1e308}}
	if !math.IsInf(coordSum(big[1]), 1) {
		t.Fatal("the sums do not overflow; the scenario pins nothing")
	}
	if idx, counts := CountBand(big, 1); !slices.Equal(idx, []int{0}) || !slices.Equal(counts, []int{0}) {
		t.Fatalf("CountBand = %v %v, want [0] [0]", idx, counts)
	}
	d, err := NewDynamic(big, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, d, "construction")
	for _, rec := range [][]float64{{1.79e308, 1.79e308}, {-1e308, -1e308}, {-1.7e308, -1.7e308}, {-1.7e308, -1e308}} {
		id, _ := d.Insert(rec)
		checkInvariants(t, d, fmt.Sprintf("insert %v", rec))
		if _, _, ok := d.Delete(id); !ok {
			t.Fatalf("delete of %d refused", id)
		}
		checkInvariants(t, d, fmt.Sprintf("delete %v", rec))
		d.Insert(rec)
		checkInvariants(t, d, fmt.Sprintf("reinsert %v", rec))
	}
}

// BenchmarkBuild times NewDynamic at the serving depth on the benchmark's
// ANTI and IND set sizes.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		kind dataset.Kind
		n    int
	}{{dataset.ANTI, 25_000}, {dataset.IND, 10_000}, {dataset.IND, 200_000}} {
		recs := dataset.Synthetic(c.kind, c.n, 4, 1)
		b.Run(fmt.Sprintf("%v-%d", c.kind, c.n), func(b *testing.B) {
			for range b.N {
				if _, err := NewDynamic(recs, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
