package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	utk "repro"
	"repro/internal/dataset"
	"repro/internal/store"
)

func region(t *testing.T, d int) *utk.Region {
	t.Helper()
	rd := d - 1
	lo := make([]float64, rd)
	hi := make([]float64, rd)
	for j := range lo {
		lo[j] = 0.2 / float64(rd)
		hi[j] = lo[j] + 0.05
	}
	r, err := utk.NewBoxRegion(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCreateGetDrop(t *testing.T) {
	reg := New()
	recs := dataset.Synthetic(dataset.IND, 100, 3, 1)

	ent, err := reg.Create("hotels", recs, Options{MaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ent.Engine.MaxK() != 5 || ent.Len() != 100 {
		t.Fatalf("created engine maxk=%d live=%d, want 5/100", ent.Engine.MaxK(), ent.Len())
	}
	if _, err := reg.Create("hotels", recs, Options{MaxK: 5}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := reg.Create("motels", recs, Options{MaxK: 5}); err != nil {
		t.Fatal(err)
	}

	if got := reg.Names(); fmt.Sprint(got) != "[hotels motels]" {
		t.Fatalf("names = %v", got)
	}
	if _, err := reg.Get("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("get unknown: %v", err)
	}
	if _, err := reg.Sole(); err == nil {
		t.Fatal("Sole succeeded with two datasets")
	}
	if err := reg.Drop("motels"); err != nil {
		t.Fatal(err)
	}
	if sole, err := reg.Sole(); err != nil || sole.Name != "hotels" {
		t.Fatalf("Sole after drop: %v, %v", sole, err)
	}
	if err := reg.Drop("motels"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestBadNames(t *testing.T) {
	reg := New()
	recs := dataset.Synthetic(dataset.IND, 10, 2, 1)
	for _, name := range []string{"", "a/b", "a b", "café", string(make([]byte, 200))} {
		if _, err := reg.Create(name, recs, Options{MaxK: 2}); !errors.Is(err, ErrBadName) {
			t.Errorf("name %q accepted: %v", name, err)
		}
	}
	for _, name := range []string{"a", "A-1_b.c", "x0"} {
		if err := ValidateName(name); err != nil {
			t.Errorf("name %q rejected: %v", name, err)
		}
	}
}

// TestUpdateRoutingIsolation checks that updates through the registry reach
// only the named engine: two datasets built from identical records diverge
// after one receives an insert.
func TestUpdateRoutingIsolation(t *testing.T) {
	reg := New()
	recs := dataset.Synthetic(dataset.COR, 120, 3, 5)
	if _, err := reg.Create("a", recs, Options{MaxK: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("b", recs, Options{MaxK: 4}); err != nil {
		t.Fatal(err)
	}
	res, err := reg.Update("a", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{2, 2, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	id := res.IDs[0]
	if _, err := reg.Update("nope", nil); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("update unknown: %v", err)
	}

	q := utk.Query{K: 2, Region: region(t, 3)}
	entA, _ := reg.Get("a")
	entB, _ := reg.Get("b")
	resA, err := entA.Engine.UTK1(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := entB.Engine.UTK1(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	inA := false
	for _, got := range resA.Records {
		if got == id {
			inA = true
		}
	}
	if !inA {
		t.Fatalf("dominating insert %d missing from dataset a's answer %v", id, resA.Records)
	}
	for _, got := range resB.Records {
		if got == id {
			t.Fatalf("insert to dataset a leaked into dataset b's answer %v", resB.Records)
		}
	}
}

func TestAggregateStats(t *testing.T) {
	reg := New()
	recs := dataset.Synthetic(dataset.IND, 80, 3, 11)
	if _, err := reg.Create("a", recs, Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("b", recs, Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	q := utk.Query{K: 2, Region: region(t, 3)}
	for _, name := range []string{"a", "a", "b"} {
		ent, _ := reg.Get(name)
		if _, err := ent.Engine.UTK1(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	// The sums over PerDataset are taken by the HTTP layer's stats table and
	// pinned by server.TestStatsAggregation.
	agg := reg.Stats()
	if len(agg.PerDataset) != 2 {
		t.Fatalf("per-dataset snapshots: %+v, want 2 datasets", agg.PerDataset)
	}
	if agg.PerDataset["a"].Live != 80 || agg.PerDataset["b"].Live != 80 {
		t.Fatalf("per-dataset live: %+v, want 80 each", agg.PerDataset)
	}
	if agg.PerDataset["a"].Queries != 2 || agg.PerDataset["b"].Queries != 1 {
		t.Fatalf("per-dataset queries: %+v", agg.PerDataset)
	}
}

// TestConcurrentCreateDropGet hammers the registry from multiple goroutines;
// meant for -race.
func TestConcurrentCreateDropGet(t *testing.T) {
	reg := New()
	recs := dataset.Synthetic(dataset.IND, 30, 2, 3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("ds%d", w%2)
			for i := 0; i < 20; i++ {
				if _, err := reg.Create(name, recs, Options{MaxK: 2}); err != nil && !errors.Is(err, ErrExists) {
					t.Errorf("create: %v", err)
					return
				}
				reg.Get(name)
				reg.Stats()
				if err := reg.Drop(name); err != nil && !errors.Is(err, ErrUnknownDataset) {
					t.Errorf("drop: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCreateRejectsBadRecords pins Create's validation: every unusable
// record collection is refused with the error the facade has always given,
// and a refused create registers nothing and stages nothing in the store.
func TestCreateRejectsBadRecords(t *testing.T) {
	good := []float64{0.5, 0.5, 0.5}
	cases := []struct {
		name string
		recs [][]float64
		want string // error text
	}{
		{name: "empty", recs: nil, want: "utk: empty dataset"},
		{name: "d=1", recs: [][]float64{{1}, {2}}, want: "utk: records must have at least 2 attributes"},
		{name: "ragged", recs: [][]float64{good, {0.1, 0.2}}, want: "utk: record 1 has 2 attributes, want 3"},
		{name: "NaN", recs: [][]float64{good, {0.1, math.NaN(), 0.2}}, want: "utk: record 1 attribute 1 is not finite: NaN"},
		{name: "+Inf", recs: [][]float64{{math.Inf(1), 0, 0}, good}, want: "utk: record 0 attribute 0 is not finite: +Inf"},
		{name: "-Inf", recs: [][]float64{good, good, {0, 0, math.Inf(-1)}}, want: "utk: record 2 attribute 2 is not finite: -Inf"},
	}
	st, err := store.OpenFile(t.TempDir(), store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewWithStore(st, SnapshotPolicy{})
	for _, tc := range cases {
		_, err := reg.Create("ds", tc.recs, Options{MaxK: 2})
		switch {
		case err == nil:
			t.Fatalf("%s: accepted", tc.name)
		case err.Error() != tc.want:
			t.Fatalf("%s: error %q, want %q", tc.name, err, tc.want)
		}
		if reg.Len() != 0 {
			t.Fatalf("%s: a refused create registered %v", tc.name, reg.Names())
		}
		if m, err := st.LoadManifest(); err != nil || len(m.Datasets) != 0 {
			t.Fatalf("%s: a refused create staged %+v (%v)", tc.name, m, err)
		}
	}
}

// TestCreateDoesNotAliasRecords: the engine serves its own copy, so a caller
// that reuses its slices after Create changes no answer — before or after an
// update makes the band recount against the live table.
func TestCreateDoesNotAliasRecords(t *testing.T) {
	ctx := context.Background()
	q := utk.Query{K: 5, Region: region(t, 3)}
	pristine, err := utk.NewDataset(dataset.Synthetic(dataset.IND, 200, 3, 13))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pristine.UTK1(q)
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.Synthetic(dataset.IND, 200, 3, 13)
	ent, err := New().Create("ds", recs, Options{MaxK: 5, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		for j := range rec {
			rec[j] = 1 - rec[j]
		}
		recs[i] = nil
	}
	got, err := ent.Engine.UTK1(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Records, want.Records) {
		t.Fatalf("answer %v after the caller mutated its records, want %v", got.Records, want.Records)
	}
	// Deleting an answer record makes the band recount and promote from
	// the live table: the oracle is the pristine data without it.
	gone := want.Records[0]
	if err := ent.Engine.Delete(gone); err != nil {
		t.Fatal(err)
	}
	if got, err = ent.Engine.UTK1(ctx, q); err != nil {
		t.Fatal(err)
	}
	rest, err := utk.NewDataset(slices.Delete(dataset.Synthetic(dataset.IND, 200, 3, 13), gone, gone+1))
	if err != nil {
		t.Fatal(err)
	}
	want2, err := rest.UTK1(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range want2.Records {
		if id >= gone {
			want2.Records[i] = id + 1
		}
	}
	if !slices.Equal(got.Records, want2.Records) {
		t.Fatalf("answer %v after deleting %d, want %v", got.Records, gone, want2.Records)
	}
}
