package skyband

import (
	"fmt"
	"math"
	"math/rand"
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
// constant coordinate (an axis with no cuts), negative coordinates, and two
// ±1.7e308 outliers at the ends of the first two axes.
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
// the id, cover and count columns.
func structure(d *Dynamic) string {
	return fmt.Sprint(d.ids, d.cover, d.count)
}

// TestBuildMatchesBruteForce checks the grid-pass construction against the
// O(n²) definition: CountBand's ids and counts are naiveKSkyband's with the
// brute-force counts, NewDynamic passes checkInvariants (band exact, the
// fence the skyline of the other records, every cover a dominator of its
// record), and the built structure — its id, cover and count columns —
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

// TestBuildFromState pins restore as a rebuild: State lists the live
// records strongest first with ties by id, and a structure restored from
// it, from the same state shuffled, or — up to ids — built by NewDynamic
// over its records is the one the build makes: the same entries in the
// same order, the same cover column, the same state again. The churned
// records are snapped to a 1/16 grid, so equal records occur and only the
// ids order them.
func TestBuildFromState(t *testing.T) {
	c := newChurn(t, dataset.ANTI, 400, 3, 4, 16, 31)
	for range 8 {
		ops := c.batch(40)
		ids, _, err := c.d.ApplyOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		c.mirror(ops, ids)
	}
	st := c.d.State()
	by := strongestFirst(st.LiveRecs, st.LiveIDs)
	for i := 1; i < len(st.LiveIDs); i++ {
		a, b := ranked{coordSum(st.LiveRecs[i-1]), i - 1}, ranked{coordSum(st.LiveRecs[i]), i}
		if by(a, b) >= 0 {
			t.Fatalf("State lists id %d before id %d, not strongest first with ties by id", st.LiveIDs[i-1], st.LiveIDs[i])
		}
	}
	restored, err := RestoreDynamic(st)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, restored, "restored")
	perm := rand.New(rand.NewSource(5)).Perm(len(st.LiveIDs))
	shuffled := *st
	shuffled.LiveIDs, shuffled.LiveRecs = make([]int, len(perm)), make([][]float64, len(perm))
	for i, j := range perm {
		shuffled.LiveIDs[i], shuffled.LiveRecs[i] = st.LiveIDs[j], st.LiveRecs[j]
	}
	again, err := RestoreDynamic(&shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if structure(again) != structure(restored) {
		t.Fatal("restoring a shuffled state classifies the slots differently")
	}
	for name, d := range map[string]*Dynamic{"restored": restored, "shuffled": again} {
		if got := d.State(); !slices.Equal(got.LiveIDs, st.LiveIDs) || !slices.EqualFunc(got.LiveRecs, st.LiveRecs, slices.Equal) || got.NextID != st.NextID || got.Inserts != st.Inserts {
			t.Fatalf("%s: State does not give the state back", name)
		}
	}
	fresh, err := NewDynamic(st.LiveRecs, st.K)
	if err != nil {
		t.Fatal(err)
	}
	// NewDynamic numbers the records by position in st, which is their rank,
	// and both take their slots in that order.
	for s, i := range fresh.ids {
		cover := fresh.cover[s]
		if cover != isEntry {
			cover = st.LiveIDs[cover]
		}
		if restored.ids[s] != st.LiveIDs[i] || restored.cover[s] != cover || restored.count[s] != fresh.count[s] {
			t.Fatalf("slot %d: NewDynamic has id %d cover %d count %d, the restore id %d cover %d count %d",
				s, st.LiveIDs[i], cover, fresh.count[s], restored.ids[s], restored.cover[s], restored.count[s])
		}
	}
}

// TestBuildAllocatesByBand pins construction to the records, not the band
// depth: two records at K = 2²⁰ allocate no count level, diag buffer or
// offset table of K entries.
func TestBuildAllocatesByBand(t *testing.T) {
	recs := [][]float64{{1, 2}, {2, 1}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := NewDynamic(recs, 1<<20)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewDynamic over 2 records at K = 2^20 allocated %d bytes", got)
	}
	checkInvariants(t, d, "construction")
	if len(d.levels) != 1 {
		t.Fatalf("%d count levels for a band of counts 0", len(d.levels))
	}
}

// TestDynamicLiveHeap bounds what the built structure holds beyond the
// records it references — the live table, the count levels and the two grids
// — on ANTI-25k at d = 4 and K = 10: at most 3.2 MB of live heap.
func TestDynamicLiveHeap(t *testing.T) {
	recs := dataset.Synthetic(dataset.ANTI, 25000, 4, 20180801)
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	d, err := NewDynamic(recs, 10)
	if err != nil {
		t.Fatal(err)
	}
	held := live() - before
	runtime.KeepAlive(d)
	t.Logf("NewDynamic holds %.2f MB (band %d, fence %d)", float64(held)/1e6, d.band.rows, d.fence.rows)
	if held > 3.2e6 {
		t.Fatalf("NewDynamic over ANTI-25k holds %.2f MB of live heap, more than 3.2 MB", float64(held)/1e6)
	}
}

// BenchmarkBuild times NewDynamic at the serving depth on the benchmark's
// ANTI and IND set sizes, and RestoreDynamic over the state it exports,
// whose records come strongest first and need no sort.
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
		d, err := NewDynamic(recs, 10)
		if err != nil {
			b.Fatal(err)
		}
		st := d.State()
		b.Run(fmt.Sprintf("%v-%d/restore", c.kind, c.n), func(b *testing.B) {
			for range b.N {
				if _, err := RestoreDynamic(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
