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

// columnsTestData builds record sets that stress the float32 kernel's
// borderline handling: uniform data, clustered near-ties, exact duplicates,
// and large-magnitude values that widen the rounding slack.
func columnsTestData(rng *rand.Rand, n, d int, scale float64, dup bool) [][]float64 {
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
		// records so scores tie exactly and within float32 resolution.
		for i := 0; i < n/3; i++ {
			src := recs[rng.Intn(n)]
			cp := append([]float64(nil), src...)
			if i%2 == 0 {
				cp[rng.Intn(d)] += scale * 1e-8
			}
			recs[rng.Intn(n)] = cp
		}
		// A ladder of constant records (one score everywhere in R) above the
		// rest, a fraction of the rounding slack apart: the k-th largest
		// minimum is a rung, and the rungs below it sit at every distance from
		// it that the kernel's slack-wide cases tell apart.
		for m := 0; m < n/4; m++ {
			p := recs[rng.Intn(n)]
			for j := range p {
				p[j] = scale * (1 + 2e-6*float64(m))
			}
		}
	}
	return recs
}

// bounds32 is the float32 score range of rec over [lo, hi] the way the
// three-pass kernel computed it: the last attribute, then dimensions 0…d−2,
// choosing the corner product by comparison.
func bounds32(rec, lo, hi []float64) (mn, mx float32) {
	last := float32(rec[len(rec)-1])
	mn, mx = last, last
	for j := range lo {
		a := float32(rec[j]) - last
		t1, t2 := a*float32(lo[j]), a*float32(hi[j])
		if t1 <= t2 {
			mn, mx = mn+t1, mx+t2
		} else {
			mn, mx = mn+t2, mx+t1
		}
	}
	return mn, mx
}

// checkPrefilter holds the columnar kernel to its contract on one input — cols
// is the layout of recs, or a prefix view of a longer set's layout — and
// returns the length of the list its streaming pass kept (−1 when the kernel
// declines the input and the float64 path serves it). The contract: the
// survivors are exactly the records IntervalExcluded keeps; stream's bounds
// and k-th largest minimum are the float32 values of the three-pass kernel;
// and every record stream drops is one neither later step needs — below the
// band θ is taken from, and excluded by the float32 bound with slack to spare
// — which is what makes the result exact by construction rather than by the
// slack being loose.
func checkPrefilter(tb testing.TB, cols *Columns, recs [][]float64, r *geom.Region, k int) int {
	tb.Helper()
	if cols == nil || len(recs) <= k {
		return -1
	}
	got, ok := cols.survivors(recs, r, k)
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

	lo, hi := r.Bounds()
	boxMag := 0.0
	for j := range lo {
		boxMag = math.Max(boxMag, math.Max(math.Abs(lo[j]), math.Abs(hi[j])))
	}
	slack := cols.slack(boxMag)
	kept, kth32 := cols.stream(lo, hi, k, slack)
	mins32, maxs32 := make([]float32, len(recs)), make([]float32, len(recs))
	mins := make([]float64, len(recs))
	for i, rec := range recs {
		mins32[i], maxs32[i] = bounds32(rec, lo, hi)
		mins[i] = r.MinScore(rec)
	}
	if ref, _ := kthLargestBySort(mins32, k); kth32 != ref {
		tb.Fatalf("n=%d k=%d: stream's k-th largest minimum %g, want %g", len(recs), k, kth32, ref)
	}
	theta, _ := kthLargestBySort(mins, k)
	next := 0
	for i := range recs {
		mn, mx := mins32[i], maxs32[i]
		if math.IsNaN(float64(mn)) || math.IsInf(float64(mn), 0) || math.IsNaN(float64(mx)) || math.IsInf(float64(mx), 0) {
			tb.Fatalf("n=%d k=%d: record %d has the non-finite float32 bounds [%g, %g] and the kernel ran", len(recs), k, i, mn, mx)
		}
		if next < len(kept) && kept[next].i == i {
			if kept[next].mn != mn || kept[next].mx != mx {
				tb.Fatalf("n=%d k=%d: record %d kept with bounds [%g, %g], want [%g, %g]", len(recs), k, i, kept[next].mn, kept[next].mx, mn, mx)
			}
			next++
			continue
		}
		if float64(mn) >= float64(kth32)-2*slack {
			tb.Fatalf("n=%d k=%d: stream dropped record %d from the θ band (min %g, k-th %g, slack %g)", len(recs), k, i, mn, kth32, slack)
		}
		if !(float64(mx)+slack+geom.Eps < theta) {
			tb.Fatalf("n=%d k=%d: stream dropped record %d, which the padded bound does not exclude (max %g, θ %g, slack %g)", len(recs), k, i, mx, theta, slack)
		}
	}
	if next != len(kept) {
		tb.Fatalf("n=%d k=%d: stream's list is not in index order", len(recs), k)
	}
	return len(kept)
}

// arrivalOrders returns recs as given, strongest-first and weakest-first by
// minimum score over r. Weakest-first is the order in which the running bound
// never drops anything: every record's minimum is at least the running k-th
// largest, so stream keeps all n.
func arrivalOrders(recs [][]float64, r *geom.Region) [3][][]float64 {
	strongest := slices.Clone(recs)
	sort.SliceStable(strongest, func(a, b int) bool { return r.MinScore(strongest[a]) > r.MinScore(strongest[b]) })
	weakest := slices.Clone(strongest)
	slices.Reverse(weakest)
	return [3][][]float64{recs, strongest, weakest}
}

// TestColumnsIntervalDifferential pins the columnar float32 prefilter to the
// float64 rule bit-for-bit (see checkPrefilter): over randomized record sets —
// including exact duplicates, near-ties inside float32 resolution, and
// large-magnitude attributes — and over the serving-size bands of the two
// filter-heavy benchmark workloads in friendly and hostile arrival orders.
func TestColumnsIntervalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	cases := 0
	for _, d := range []int{2, 3, 4, 6} {
		for _, n := range []int{12, 60, 400} {
			for _, scale := range []float64{1, 1000} {
				for _, dup := range []bool{false, true} {
					recs := columnsTestData(rng, n, d, scale, dup)
					for trial := 0; trial < 4; trial++ {
						r := filterBox(t, rng, d-1)
						for _, k := range []int{1, 5, n - 1, n} {
							checkPrefilter(t, NewColumns(recs), recs, r, k)
							cases++
						}
					}
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no cases executed")
	}

	for _, band := range servingBands {
		t.Run(band.name, func(t *testing.T) {
			n := band.n
			if testing.Short() {
				n /= 8
			}
			_, recs := servingBand(t, band.kind, n)
			var peak [3]int
			for _, r := range dataset.RandomBoxes(3, band.sigma, 4, 11) {
				for order, ordered := range arrivalOrders(recs, r) {
					for _, k := range []int{1, 5, 10} {
						peak[order] = max(peak[order], checkPrefilter(t, NewColumns(ordered), ordered, r, k))
					}
				}
			}
			t.Logf("band of %d records: stream's list peaked at %d as drawn, %d strongest-first, %d weakest-first",
				len(recs), peak[0], peak[1], peak[2])
			if peak[2] != len(recs) {
				t.Errorf("weakest-first kept %d of %d records: not the hostile order it is meant to be", peak[2], len(recs))
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
// id).
func servingBand(tb testing.TB, kind dataset.Kind, n int) ([]int, [][]float64) {
	tb.Helper()
	d, err := NewDynamic(dataset.Synthetic(kind, n, 4, 1), 10)
	if err != nil {
		tb.Fatal(err)
	}
	ids, recs, _ := d.Band()
	return ids, recs
}

// TestScanGraphWithDifferential pins that the columnar fast path yields the
// identical r-dominance graph — same member IDs in the same order, same
// relation — as the float64 ScanGraph, and that stale or mismatched columns
// fall back rather than corrupt the result.
func TestScanGraphWithDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for _, d := range []int{3, 4} {
		for _, n := range []int{50, 300} {
			recs := columnsTestData(rng, n, d, 1, true)
			ids := make([]int, n)
			for i := range ids {
				ids[i] = 1000 + i
			}
			cols := NewColumns(recs)
			for trial := 0; trial < 6; trial++ {
				r := filterBox(t, rng, d-1)
				k := 1 + rng.Intn(8)
				want := ScanGraph(recs, ids, r, k)
				got := ScanGraphWith(cols, recs, ids, r, k)
				if fmt.Sprint(want.IDs) != fmt.Sprint(got.IDs) {
					t.Fatalf("d=%d n=%d k=%d: member IDs diverge\nwant %v\ngot  %v", d, n, k, want.IDs, got.IDs)
				}
				wr, gr := graphRelation(want), graphRelation(got)
				if len(wr) != len(gr) {
					t.Fatalf("d=%d n=%d k=%d: relation sizes diverge: want %d got %d", d, n, k, len(wr), len(gr))
				}
				for e := range wr {
					if !gr[e] {
						t.Fatalf("d=%d n=%d k=%d: edge %s missing from columnar graph", d, n, k, e)
					}
				}
				// A columns layout for a different record set must be ignored.
				stale := NewColumns(recs[:n/2])
				fb := ScanGraphWith(stale, recs, ids, r, k)
				if fmt.Sprint(want.IDs) != fmt.Sprint(fb.IDs) {
					t.Fatalf("d=%d n=%d k=%d: stale-columns fallback diverged", d, n, k)
				}
			}
		}
	}
}

// warmFilterBytes is the heap the warm filter allocates per call, averaged
// over a few fresh boxes of the filter_anti workload's shape.
func warmFilterBytes(tb testing.TB, ids []int, recs [][]float64) float64 {
	cols := NewColumns(recs)
	boxes := dataset.RandomBoxes(3, 0.005, 32, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range boxes {
		ScanGraphWith(cols, recs, ids, r, 10)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(boxes))
}

// TestWarmFilterAllocsIndependentOfN pins that the warm filter allocates for
// what survives, not for what it scans: an 8k-record superset may cost at
// most twice the bytes per call of a 1k-record one (8.3 against 8.6 KB; the
// three-pass kernel's n-sized bound and verdict slices made it 18 against 80).
func TestWarmFilterAllocsIndependentOfN(t *testing.T) {
	smallIDs, small := servingBand(t, dataset.ANTI, 1500)
	largeIDs, large := servingBand(t, dataset.ANTI, 25000)
	bs, bl := warmFilterBytes(t, smallIDs, small), warmFilterBytes(t, largeIDs, large)
	t.Logf("warm filter: %.0f B/call over %d records, %.0f B/call over %d", bs, len(small), bl, len(large))
	if bl > 2*bs {
		t.Errorf("warm filter allocates %.0f B/call over %d records but %.0f over %d: an n-sized scratch is back", bl, len(large), bs, len(small))
	}
}

// BenchmarkWarmFilter is the engine's warm filter (ScanGraphWith over a
// prebuilt layout of the MaxK superset, fresh boxes) on the bands of the two
// filter-heavy benchmark workloads, with the per-record cost of the whole
// call next to ns/op — the Go-level number for the streaming kernel, as
// BenchmarkFilterPrefilter is for the cold path.
func BenchmarkWarmFilter(b *testing.B) {
	for _, w := range servingBands {
		b.Run(w.name, func(b *testing.B) {
			ids, recs := servingBand(b, w.kind, w.n)
			cols := NewColumns(recs)
			boxes := dataset.RandomBoxes(3, w.sigma, 64, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ScanGraphWith(cols, recs, ids, boxes[i%len(boxes)], 10)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/record")
		})
	}
}

// TestColumnsDeclineBeyondFloat32 is the regression test for attributes and
// box corners the float32 kernel cannot hold: CheckRecord accepts any finite
// float64, 1e39 converts to +Inf, Inf − Inf and Inf·0 are NaN, and a NaN bound
// once sat in the k-th-largest buffer for good — θ came out 0 and record 1
// below, second-best everywhere, was filtered out. The layout must not be
// built for such records, the kernel must not run over such a box, and the
// graph must be the float64 one either way.
func TestColumnsDeclineBeyondFloat32(t *testing.T) {
	box := func(lo, hi float64) *geom.Region {
		r, err := geom.NewBox([]float64{lo}, []float64{hi})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ids := []int{10, 11, 12, 13}
	sameGraph := func(recs [][]float64, r *geom.Region, k int) {
		t.Helper()
		want, got := ScanGraph(recs, ids, r, k), ScanGraphWith(NewColumns(recs), recs, ids, r, k)
		if !slices.Equal(got.IDs, want.IDs) {
			t.Errorf("k=%d: graph over %v has ids %v with the layout, %v without", k, recs, got.IDs, want.IDs)
		}
	}

	huge := [][]float64{{1e39, 1e39}, {-5, -5}, {-6, -6}, {-7, -7}}
	if NewColumns(huge) != nil {
		t.Error("NewColumns built a float32 layout over an attribute of 1e39")
	}
	if got := ScanGraph(huge, ids, box(0.2, 0.4), 2).IDs; !slices.Equal(got, []int{10, 11}) {
		t.Fatalf("float64 graph has ids %v, want [10 11]", got)
	}
	for k := 1; k <= 3; k++ {
		sameGraph(huge, box(0.2, 0.4), k)
	}

	// The cutoff is on d·2·scale·(1+boxMag): records that fit on their own
	// stop fitting under a box corner of 1e30, and a corner beyond float32
	// range (+Inf as a float32 weight) never fits.
	large := [][]float64{{1e36, -1e36}, {-5e35, 5e35}, {3e35, 3e35}, {-7e35, -7e35}}
	cols := NewColumns(large)
	if cols == nil {
		t.Fatal("NewColumns declined attributes of 1e36, which accumulate finitely over any box in the weight domain")
	}
	checkPrefilter(t, cols, large, box(0.2, 0.4), 2)
	for _, hi := range []float64{1e30, 1e39} {
		if _, ok := cols.survivors(large, box(0.2, hi), 2); ok {
			t.Errorf("the float32 kernel ran over a box corner of %g", hi)
		}
		sameGraph(large, box(0.2, hi), 2)
	}
}
