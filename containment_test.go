package utk

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// containmentFixture builds one differential scenario: a dataset of
// dimensionality d and three region pairs against one cached outer region —
// nested (derivable), partially overlapping and disjoint (not derivable).
type containmentFixture struct {
	ds      *Dataset
	outer   *Region
	nested  *Region
	partial *Region
	apart   *Region
}

func buildContainmentFixture(t *testing.T, d int, seed int64) *containmentFixture {
	t.Helper()
	n := 80 + 40*d
	recs := dataset.Synthetic(dataset.IND, n, d, seed)
	ds, err := NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	dim := d - 1
	mk := func(lo, hi float64) *Region {
		los := make([]float64, dim)
		his := make([]float64, dim)
		for i := range los {
			los[i], his[i] = lo, hi
		}
		r, err := NewBoxRegion(los, his)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return &containmentFixture{
		ds:      ds,
		outer:   mk(0.08, 0.20),
		nested:  mk(0.10, 0.16),
		partial: mk(0.15, 0.22), // sticks out of outer's upper corner
		apart:   mk(0.21, 0.24), // fully outside outer
	}
}

// uniqueTopKSets reduces a UTK2 answer to its sorted set of distinct top-k
// sets; cell geometry is not canonical between a clipped and a freshly
// computed partitioning, but this collection is.
func uniqueTopKSets(cells []Cell) []string {
	seen := map[string]bool{}
	for _, c := range cells {
		seen[fmt.Sprint(c.TopK)] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// checkPair runs UTK1 and UTK2 for the region through the engine, compares
// them id-for-id / cell-for-cell (unique sets + pointwise probes) against
// the direct Dataset computation, and returns how many of the two queries
// were served by containment derivation.
func checkPair(t *testing.T, ctx context.Context, fx *containmentFixture, e *Engine, r *Region, k int, rng *rand.Rand) int {
	t.Helper()
	derived := 0
	q := Query{K: k, Region: r}

	want1, err := fx.ds.UTK1(q)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := e.UTK1(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got1.Records) != fmt.Sprint(want1.Records) {
		t.Errorf("UTK1 %v != direct %v", got1.Records, want1.Records)
	}
	if got1.Derived {
		derived++
	}

	want2, err := fx.ds.UTK2(q)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := e.UTK2(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(uniqueTopKSets(got2.Cells)) != fmt.Sprint(uniqueTopKSets(want2.Cells)) {
		t.Errorf("UTK2 unique top-k sets diverged:\n got %v\nwant %v",
			uniqueTopKSets(got2.Cells), uniqueTopKSets(want2.Cells))
	}
	if got2.Derived {
		derived++
	}
	// Pointwise: the top-k set at sampled weight vectors must agree between
	// the engine's partitioning and the direct one; every engine cell
	// interior must resolve to the same set in the direct answer too.
	dim := r.Dim()
	for p := 0; p < 24; p++ {
		w := make([]float64, dim)
		for i := range w {
			w[i] = 0.01 + 0.22*rng.Float64()
		}
		if !r.Contains(w) {
			continue
		}
		gc, wc := got2.CellAt(w), want2.CellAt(w)
		if gc == nil || wc == nil {
			continue // boundary landing
		}
		if fmt.Sprint(gc.TopK) != fmt.Sprint(wc.TopK) {
			t.Errorf("probe %v: engine top-k %v != direct %v", w, gc.TopK, wc.TopK)
		}
	}
	for _, c := range got2.Cells {
		if !r.Contains(c.Interior) {
			t.Errorf("cell interior %v escapes the query region", c.Interior)
			continue
		}
		if wc := want2.CellAt(c.Interior); wc != nil && fmt.Sprint(c.TopK) != fmt.Sprint(wc.TopK) {
			t.Errorf("cell interior %v: engine top-k %v != direct %v", c.Interior, c.TopK, wc.TopK)
		}
	}
	return derived
}

// TestContainmentDifferential proves clip-derived answers exact across
// dimensionalities: for d = 2–5, on an engine built over the records and on
// ones reopened from a legacy snapshot of two and three parts (see
// partsEngine), a nested query after a cached UTK2 must be
// containment-derived and equal to the freshly computed answer; partially
// overlapping and disjoint queries must not be derived (and stay exact
// trivially).
func TestContainmentDifferential(t *testing.T) {
	ctx := context.Background()
	const k = 3
	for d := 2; d <= 5; d++ {
		seed := int64(100*d + 7)
		fx := buildContainmentFixture(t, d, seed)
		for _, b := range []struct {
			name  string
			parts int
		}{{"single", 1}, {"sharded-S2", 2}, {"sharded-S3", 3}} {
			t.Run(fmt.Sprintf("d=%d/%s/seed=%d", d, b.name, seed), func(t *testing.T) {
				e := partsEngine(t, fx.ds, b.parts, EngineConfig{MaxK: 6})
				rng := rand.New(rand.NewSource(seed))

				// Warm the cache with the outer partitioning.
				if _, err := e.UTK2(ctx, Query{K: k, Region: fx.outer}); err != nil {
					t.Fatal(err)
				}

				if got := checkPair(t, ctx, fx, e, fx.nested, k, rng); got != 2 {
					t.Errorf("nested pair: %d derived answers, want 2 (UTK1 + UTK2)", got)
				}
				if st := e.Stats(); st.DerivedHits != 2 {
					t.Errorf("DerivedHits = %d, want 2", st.DerivedHits)
				}
				if got := checkPair(t, ctx, fx, e, fx.partial, k, rng); got != 0 {
					t.Errorf("partially overlapping pair: %d derived answers, want 0", got)
				}
				if got := checkPair(t, ctx, fx, e, fx.apart, k, rng); got != 0 {
					t.Errorf("disjoint pair: %d derived answers, want 0", got)
				}
				st := e.Stats()
				if st.Queries != st.Hits+st.Misses+st.Shared+st.DerivedHits {
					t.Errorf("counters do not reconcile: %+v", st)
				}
			})
		}
	}
}
