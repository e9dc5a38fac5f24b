package skyband

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// filterTestData builds record sets that stress the prefilter's borderline
// handling: uniform data, clustered near-ties, exact duplicates, and
// large-magnitude values that widen the rounding margin.
func filterTestData(rng *rand.Rand, n, d int, scale float64, dup bool) [][]float64 {
	recs := make([][]float64, n)
	for i := range recs {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * scale
		}
		recs[i] = p
	}
	if dup {
		// Overwrite a third of the set with copies and near-copies of other
		// records so scores tie exactly and within a hair.
		for i := 0; i < n/3; i++ {
			src := recs[rng.Intn(n)]
			cp := append([]float64(nil), src...)
			if i%2 == 0 {
				cp[rng.Intn(d)] += scale * 1e-8
			}
			recs[rng.Intn(n)] = cp
		}
		// A ladder of constant records (one score everywhere in R) above the
		// rest, 2e-6 relative apart: the k-th largest minimum is a rung, and
		// the rungs below it sit at every distance from it.
		for m := 0; m < n/4; m++ {
			p := recs[rng.Intn(n)]
			for j := range p {
				p[j] = scale * (1 + 2e-6*float64(m))
			}
		}
	}
	return recs
}

// testLevels returns non-decreasing counts for n records over the given
// number of levels, some of which may stay empty.
func testLevels(rng *rand.Rand, n, levels int) []int {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(levels)
	}
	slices.Sort(counts)
	return counts
}

// levelCuts returns the prefix lengths a depth-k query can filter: every
// level boundary above 0, the whole set last.
func levelCuts(counts []int) []int {
	var cuts []int
	for i := 1; i <= len(counts); i++ {
		if i == len(counts) || counts[i] != counts[i-1] {
			cuts = append(cuts, i)
		}
	}
	return cuts
}

// layouts returns both layouts of one record set: one block per level as
// published, and the kd split.
func layouts(recs [][]float64, counts []int) [2]*Blocks {
	b := NewBlocks(recs, counts)
	return [2]*Blocks{b, b.Split()}
}

var layoutNames = [2]string{"unsplit", "split"}

// checkPrefilter holds the block pass to its contract on one input — b is a
// layout of a set whose level-aligned prefix is recs — and returns the
// number of rows the pass evaluated (−1 when the pass declines the input and
// the float64 path serves it). The contract: the survivors are exactly the
// records IntervalExcluded keeps; every block's bound plus the margin is at
// least every one of its rows' MaxScore, row i of the layout holding record
// orig[i]; every skipped block has bound + margin + Eps < θ, the exact k-th
// largest minimum; the pass evaluated every row outside the blocks it
// skipped; and neither a NaN nor an infinite bound is ever skippable.
func checkPrefilter(tb testing.TB, b *Blocks, recs [][]float64, r *geom.Region, k int) int {
	tb.Helper()
	for _, bnd := range []float64{math.NaN(), math.Inf(1)} {
		if skippable(bnd, 0, 1) {
			tb.Fatalf("a bound of %g is skippable", bnd)
		}
	}
	if len(recs) <= k {
		return -1
	}
	var skipped []int32
	got, rows, ok := b.survivors(r, k, len(recs), &skipped)
	if !ok {
		return -1
	}
	var want []int
	for i, out := range IntervalExcluded(recs, r, k) {
		if !out {
			want = append(want, i)
		}
	}
	if !slices.Equal(got, want) {
		tb.Fatalf("n=%d k=%d: survivors diverge from IntervalExcluded\n got %v\nwant %v", len(recs), k, got, want)
	}

	mins := make([]float64, len(recs))
	for i, rec := range recs {
		mins[i] = r.MinScore(rec)
	}
	theta, _ := kthLargestBySort(mins, k)
	lo, hi := r.Bounds()
	w, past, neg := boxShape(lo, hi)
	mg := margin(b.d, b.mag, w)
	nb, _ := b.prefix(len(recs))
	covered := 0
	for i := 0; i < nb; i++ {
		bnd := b.bound(i, lo, hi, past, neg)
		bl := b.blocks[i]
		for j := int(bl.from); j < int(bl.to); j++ {
			rec := recs[b.orig[j]]
			if !slices.Equal(rec, b.rows[j*b.d:(j+1)*b.d]) {
				tb.Fatalf("n=%d: layout row %d is %v, but it names record %d, %v", len(recs), j, b.rows[j*b.d:(j+1)*b.d], b.orig[j], rec)
			}
			if mx := r.MaxScore(rec); !(mx <= bnd+mg) {
				tb.Fatalf("n=%d k=%d: block %d's bound %g + margin %g is below record %d's MaxScore %g", len(recs), k, i, bnd, mg, b.orig[j], mx)
			}
		}
		if slices.Contains(skipped, int32(i)) {
			if !skippable(bnd, mg, theta) {
				tb.Fatalf("n=%d k=%d: skipped block %d has bound %g + margin %g + Eps ≥ θ %g", len(recs), k, i, bnd, mg, theta)
			}
			covered += int(bl.to - bl.from)
		}
	}
	if rows < len(recs)-covered || rows > len(recs) {
		tb.Fatalf("n=%d k=%d: the pass reports %d rows evaluated; the blocks it skipped hold %d", len(recs), k, rows, covered)
	}
	return rows
}

// TestBlocksIntervalDifferential pins the block pass to the float64 rule
// bit-for-bit (see checkPrefilter), on both layouts and every level prefix:
// over randomized record sets — including exact duplicates, near-ties and
// large-magnitude attributes — over hand-made sets where each part of the
// block bound is needed, and over the serving-size bands of the two
// filter-heavy benchmark workloads.
func TestBlocksIntervalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	cases := 0
	for _, d := range []int{2, 3, 4, 6} {
		for _, n := range []int{12, 60, 400} {
			for _, scale := range []float64{1, 1000} {
				for _, dup := range []bool{false, true} {
					recs := filterTestData(rng, n, d, scale, dup)
					counts := testLevels(rng, n, 4)
					ls := layouts(recs, counts)
					for trial := 0; trial < 4; trial++ {
						r := filterBox(t, rng, d-1)
						for _, k := range []int{1, 5, n - 1, n} {
							for _, cut := range levelCuts(counts) {
								for _, b := range ls {
									checkPrefilter(t, b, recs[:cut], r, k)
									cases++
								}
							}
						}
					}
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no cases executed")
	}

	box := func(lo, hi float64) *geom.Region {
		r, err := geom.NewBox([]float64{lo}, []float64{hi})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, c := range []struct {
		why  string
		recs [][]float64
		r    *geom.Region
	}{
		// 1e39 is +Inf as a float32: the float32 kernel once took θ from a
		// NaN bound here and dropped record 1, second-best everywhere.
		{"an attribute of 1e39", [][]float64{{1e39, 1e39}, {-5, -5}, {-6, -6}, {-7, -7}}, box(0.2, 0.4)},
		{"attributes of 1e36", [][]float64{{1e36, -1e36}, {-5e35, 5e35}, {3e35, 3e35}, {-7e35, -7e35}}, box(0.2, 0.4)},
		{"a box corner of 1e30", [][]float64{{1e36, -1e36}, {-5e35, 5e35}, {3e35, 3e35}, {-7e35, -7e35}}, box(0.2, 1e30)},
		{"a box corner of 1e39", [][]float64{{1e36, -1e36}, {-5e35, 5e35}, {3e35, 3e35}, {-7e35, -7e35}}, box(0.2, 1e39)},
		// w₀ = −Eps scores (0, 1) at 1 + 1e-9, above both corner forms of
		// the one block (1 and 0.5): the lo < 0 correction is needed.
		{"lo = −Eps", [][]float64{{0, 1}, {1, 0}, {0.2, 0.2}, {0.1, 0.1}}, box(-geom.Eps, 0.5)},
		// w₀ = 2 scores (1, 0) at 2 and the hi corner (1, 1) at 1: past the
		// simplex the second corner form is needed.
		{"Σ hi > 1", [][]float64{{0, 1}, {1, 0}, {0.3, 0.3}, {0.1, 0.1}}, box(0.5, 2)},
	} {
		ids := []int{10, 11, 12, 13}
		for k := 1; k <= 3; k++ {
			for li, b := range layouts(c.recs, nil) {
				if checkPrefilter(t, b, c.recs, c.r, k) < 0 {
					t.Errorf("%s, k=%d: the %s pass declined", c.why, k, layoutNames[li])
				}
				want := ScanGraph(c.recs, ids, c.r, k)
				if got, _ := ScanGraphWith(b, c.recs, ids, c.r, k); !slices.Equal(got.IDs, want.IDs) {
					t.Errorf("%s, k=%d: graph has ids %v over the %s layout, %v without", c.why, k, got.IDs, layoutNames[li], want.IDs)
				}
			}
		}
	}

	for _, band := range servingBands {
		t.Run(band.name, func(t *testing.T) {
			n := band.n
			if testing.Short() {
				n /= 8
			}
			_, recs, counts := servingBand(t, band.kind, n)
			ls := layouts(recs, counts)
			var rows [2]int
			prefix := 0
			for _, r := range dataset.RandomBoxes(3, band.sigma, 4, 11) {
				for _, k := range []int{1, 5, 10} {
					cut := sort.SearchInts(counts, k)
					prefix += cut
					for li, b := range ls {
						got := checkPrefilter(t, b, recs[:cut], r, k)
						if got < 0 {
							t.Fatalf("k=%d: the %s pass declined", k, layoutNames[li])
						}
						rows[li] += got
					}
				}
			}
			t.Logf("band of %d records: the unsplit layout evaluated %.1f %% of the prefix rows, the split one %.1f %%",
				len(recs), 100*float64(rows[0])/float64(prefix), 100*float64(rows[1])/float64(prefix))
			if rows[1] >= rows[0] {
				t.Errorf("the split layout evaluated %d rows, the unsplit one %d: the kd leaves prune nothing", rows[1], rows[0])
			}
		})
	}
}

// servingBands are the data and box side of the two filter-heavy benchmark
// workloads (bench/workload.go), whose MaxK = 10 supersets the warm filter
// scans per query.
var servingBands = []struct {
	name  string
	kind  dataset.Kind
	n     int
	sigma float64
}{
	{"IND-200k", dataset.IND, 200000, 0.015}, // refine_miss: 2.3k-record band
	{"ANTI-25k", dataset.ANTI, 25000, 0.005}, // filter_anti: 7.7k-record band
}

// servingBand is the MaxK = 10 superset a serving engine filters over for n
// synthetic 4-attribute records, in the engine's order (count-major, ties by
// id), with its counts.
func servingBand(tb testing.TB, kind dataset.Kind, n int) ([]int, [][]float64, []int) {
	tb.Helper()
	d, err := NewDynamic(dataset.Synthetic(kind, n, 4, 1), 10)
	if err != nil {
		tb.Fatal(err)
	}
	return d.Band()
}

// TestScanGraphWithDifferential pins that the block pass yields the
// identical r-dominance graph — same member IDs in the same order, same
// relation — as the float64 ScanGraph on both layouts, and that a layout of
// a different record set falls back rather than corrupt the result.
func TestScanGraphWithDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for _, d := range []int{3, 4} {
		for _, n := range []int{50, 300} {
			recs := filterTestData(rng, n, d, 1, true)
			ids := make([]int, n)
			for i := range ids {
				ids[i] = 1000 + i
			}
			ls := layouts(recs, nil)
			for trial := 0; trial < 6; trial++ {
				r := filterBox(t, rng, d-1)
				k := 1 + rng.Intn(8)
				want := ScanGraph(recs, ids, r, k)
				for li, b := range ls {
					got, _ := ScanGraphWith(b, recs, ids, r, k)
					if fmt.Sprint(want.IDs) != fmt.Sprint(got.IDs) {
						t.Fatalf("d=%d n=%d k=%d %s: member IDs diverge\nwant %v\ngot  %v", d, n, k, layoutNames[li], want.IDs, got.IDs)
					}
					wr, gr := graphRelation(want), graphRelation(got)
					if len(wr) != len(gr) {
						t.Fatalf("d=%d n=%d k=%d %s: relation sizes diverge: want %d got %d", d, n, k, layoutNames[li], len(wr), len(gr))
					}
					for e := range wr {
						if !gr[e] {
							t.Fatalf("d=%d n=%d k=%d %s: edge %s missing from the block pass's graph", d, n, k, layoutNames[li], e)
						}
					}
				}
				// A layout of a different record set must be ignored.
				stale := NewBlocks(recs[:n/2], nil)
				fb, _ := ScanGraphWith(stale, recs, ids, r, k)
				if fmt.Sprint(want.IDs) != fmt.Sprint(fb.IDs) {
					t.Fatalf("d=%d n=%d k=%d: stale-layout fallback diverged", d, n, k)
				}
			}
		}
	}
}

// warmFilterBytes is the heap the warm filter allocates per call over the
// layout b of recs, averaged over a few fresh boxes of the filter_anti
// workload's shape.
func warmFilterBytes(tb testing.TB, b *Blocks, ids []int, recs [][]float64) float64 {
	boxes := dataset.RandomBoxes(3, 0.005, 32, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range boxes {
		ScanGraphWith(b, recs, ids, r, 10)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(boxes))
}

// TestWarmFilterAllocsIndependentOfN pins that the warm filter allocates for
// what survives, not for what it scans: on either layout, an 8k-record
// superset may cost at most twice the bytes per call of a 1k-record one (the
// three-pass kernel's n-sized bound and verdict slices once made it 18
// against 80 KB).
func TestWarmFilterAllocsIndependentOfN(t *testing.T) {
	smallIDs, small, smallCounts := servingBand(t, dataset.ANTI, 1500)
	largeIDs, large, largeCounts := servingBand(t, dataset.ANTI, 25000)
	ls, ll := layouts(small, smallCounts), layouts(large, largeCounts)
	for li := range ls {
		bs, bl := warmFilterBytes(t, ls[li], smallIDs, small), warmFilterBytes(t, ll[li], largeIDs, large)
		t.Logf("warm filter, %s: %.0f B/call over %d records, %.0f B/call over %d", layoutNames[li], bs, len(small), bl, len(large))
		if bl > 2*bs {
			t.Errorf("%s: warm filter allocates %.0f B/call over %d records but %.0f over %d: an n-sized scratch is back", layoutNames[li], bl, len(large), bs, len(small))
		}
	}
}

// BenchmarkWarmFilter is the engine's warm filter (ScanGraphWith over a
// prebuilt layout of the MaxK superset, fresh boxes) on the bands of the two
// filter-heavy benchmark workloads and both layouts, with the per-record
// cost of the whole call and the share of the prefix's rows the block pass
// evaluated next to ns/op — the Go-level numbers for the block pass, as
// BenchmarkFilterPrefilter is for the cold path. The share is a count: it
// repeats exactly.
func BenchmarkWarmFilter(b *testing.B) {
	for _, w := range servingBands {
		b.Run(w.name, func(b *testing.B) {
			ids, recs, counts := servingBand(b, w.kind, w.n)
			boxes := dataset.RandomBoxes(3, w.sigma, 64, 5)
			for li, l := range layouts(recs, counts) {
				b.Run(layoutNames[li], func(b *testing.B) {
					rows := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_, n := ScanGraphWith(l, recs, ids, boxes[i%len(boxes)], 10)
						rows += n
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/record")
					b.ReportMetric(float64(rows)/float64(b.N)/float64(len(recs)), "evaluated/row")
				})
			}
		})
	}
}
