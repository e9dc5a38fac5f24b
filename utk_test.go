package utk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
)

func figure1Dataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset([][]float64{
		{8.3, 9.1, 7.2}, // p1
		{2.4, 9.6, 8.6}, // p2
		{5.4, 1.6, 4.1}, // p3
		{2.6, 6.9, 9.4}, // p4
		{7.3, 3.1, 2.4}, // p5
		{7.9, 6.4, 6.6}, // p6
		{8.6, 7.1, 4.3}, // p7
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func figure1Region(t *testing.T) *Region {
	t.Helper()
	r, err := NewBoxRegion([]float64{0.05, 0.05}, []float64{0.45, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestUTK1PaperExample(t *testing.T) {
	ds := figure1Dataset(t)
	r := figure1Region(t)
	res, err := ds.UTK1(Query{K: 2, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 5}
	if len(res.Records) != len(want) {
		t.Fatalf("UTK1 = %v, want %v", res.Records, want)
	}
	for i := range want {
		if res.Records[i] != want[i] {
			t.Fatalf("UTK1 = %v, want %v", res.Records, want)
		}
	}
	if res.Stats.Candidates == 0 || res.Stats.RefineDuration < 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestUTK1BaselinesAgree(t *testing.T) {
	ds := figure1Dataset(t)
	r := figure1Region(t)
	base, err := ds.UTK1(Query{K: 2, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoBaselineSK, AlgoBaselineON, AlgoRSA} {
		res, err := ds.UTK1(Query{K: 2, Region: r, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != len(base.Records) {
			t.Fatalf("algorithm %v: %v != %v", algo, res.Records, base.Records)
		}
		for i := range base.Records {
			if res.Records[i] != base.Records[i] {
				t.Fatalf("algorithm %v: %v != %v", algo, res.Records, base.Records)
			}
		}
	}
}

func TestUTK2PaperExample(t *testing.T) {
	ds := figure1Dataset(t)
	r := figure1Region(t)
	res, err := ds.UTK2(Query{K: 2, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions != len(res.Cells) || res.Stats.UniqueTopKSets != 4 {
		t.Fatalf("stats: %+v with %d cells", res.Stats, len(res.Cells))
	}
	// The four distinct top-2 sets of Figure 1(b).
	want := map[string]bool{"1,3": true, "0,3": true, "0,1": true, "0,5": true}
	got := map[string]bool{}
	for _, c := range res.Cells {
		key := ""
		for i, id := range c.TopK {
			if i > 0 {
				key += ","
			}
			key += string(rune('0' + id))
		}
		got[key] = true
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing top-2 set {%s}; got %v", k, got)
		}
	}
	// CellAt: the leftmost area of R must give {p2, p4} = {1, 3}.
	c := res.CellAt([]float64{0.06, 0.06})
	if c == nil || len(c.TopK) != 2 || c.TopK[0] != 1 || c.TopK[1] != 3 {
		t.Fatalf("CellAt(leftmost) = %+v, want TopK [1 3]", c)
	}
	if res.CellAt([]float64{0.9, 0.05}) != nil {
		t.Fatal("CellAt outside R should return nil")
	}
	// Cell geometry: the interior must be inside its own cell, vertices must
	// satisfy every bounding half-space, and their centroid must be inside.
	for _, cell := range res.Cells {
		if !cell.Contains(cell.Interior) {
			t.Fatalf("cell does not contain its interior %v", cell.Interior)
		}
		vs := cell.Vertices()
		if len(vs) < 3 {
			t.Fatalf("2D cell has %d vertices", len(vs))
		}
		centroid := make([]float64, 2)
		for _, v := range vs {
			for j := range centroid {
				centroid[j] += v[j] / float64(len(vs))
			}
		}
		if !cell.Contains(centroid) {
			t.Fatalf("vertex centroid %v outside cell", centroid)
		}
	}
}

func TestTopKAndScore(t *testing.T) {
	ds := figure1Dataset(t)
	// Weights (0.3, 0.5, 0.2) from the paper's introduction.
	full := []float64{0.3, 0.5, 0.2}
	top, err := ds.TopK(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	// p1 scores 8.48; p7 scores 7.01; p2 scores 7.24: top-2 = {p1, p2}.
	if len(top) != 2 || top[0] != 0 || top[1] != 1 {
		t.Fatalf("TopK = %v, want [0 1]", top)
	}
	s, err := ds.Score(0, full)
	if err != nil {
		t.Fatal(err)
	}
	if s < 8.47 || s > 8.49 {
		t.Fatalf("Score(p1) = %g, want ≈ 8.48", s)
	}
	reduced := []float64{0.3, 0.5}
	s2, err := ds.Score(0, reduced)
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Fatalf("full (%g) and reduced (%g) scoring disagree", s, s2)
	}
	if _, err := ds.TopK([]float64{0.3}, 2); err == nil {
		t.Fatal("wrong weight length should fail")
	}
	if _, err := ds.TopK(full, 0); err == nil {
		t.Fatal("k = 0 should fail")
	}
}

// TestOnionLayersTerminatesOnLargeScores: on these records the two-phase
// tableau's phase 1 cycled and Dataset.OnionLayers never returned; the
// layer is internal/hull's TestOnionLayersTerminates's, checked exactly
// there.
func TestOnionLayersTerminatesOnLargeScores(t *testing.T) {
	ds, err := NewDataset([][]float64{
		{343114.5476016266, 121460.47009760718, 465216.0323757259, 41523.043973598215},
		{437687.60762458434, 149868.60897967956, 994610.9636507492, 862453.6398861064},
		{624933.1242572828, 952890.9320339065, 251083.07452760875, 134693.93530802772},
		{5420.908684702261, 789804.4113405755, 167295.83628650868, 155822.27797130225},
		{740942.8823461719, 858338.2158419619, 164886.54622460675, 163717.3745636993},
		{560928.319869509, 834167.7743217335, 506915.05410031514, 884345.5543512668},
		{5420.908677894474, 789804.4187637685, 167295.83717785164, 155822.27675858745},
		{858179.3058389894, 804950.7406220298, 80170.39707670466, 219262.39259196093},
		{369640.4360809406, 996027.9961897501, 681647.0024488182, 91678.33105228853},
		{926970.9851535425, 706368.5685496288, 935572.1241089228, 333107.13626061},
		{624933.1238425926, 952890.9275037404, 251083.07583488504, 134693.93565380233},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan [][]int, 1)
	go func() {
		layers, _ := ds.OnionLayers(1) // k = 1 is valid
		done <- layers
	}()
	select {
	case layers := <-done:
		sort.Ints(layers[0])
		if fmt.Sprint(layers[0]) != "[1 2 5 7 8 9]" {
			t.Fatalf("layer 1 = %v, want [1 2 5 7 8 9]", layers[0])
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Dataset.OnionLayers did not return within 20 s")
	}
}

func TestFilters(t *testing.T) {
	ds := figure1Dataset(t)
	r := figure1Region(t)
	ksb, err := ds.KSkyband(2)
	if err != nil {
		t.Fatal(err)
	}
	rsb, err := ds.RSkyband(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := ds.OnionLayers(2)
	if err != nil {
		t.Fatal(err)
	}
	inK := map[int]bool{}
	for _, id := range ksb {
		inK[id] = true
	}
	for _, id := range rsb {
		if !inK[id] {
			t.Fatalf("r-skyband member %d outside k-skyband", id)
		}
	}
	if len(layers) != 2 {
		t.Fatalf("want 2 onion layers, got %d", len(layers))
	}
	// UTK1 ⊆ r-skyband.
	res, err := ds.UTK1(Query{K: 2, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	inR := map[int]bool{}
	for _, id := range rsb {
		inR[id] = true
	}
	for _, id := range res.Records {
		if !inR[id] {
			t.Fatalf("UTK1 record %d outside r-skyband", id)
		}
	}
}

func TestValidation(t *testing.T) {
	ds := figure1Dataset(t)
	r := figure1Region(t)
	if _, err := NewDataset(nil); err == nil {
		t.Fatal("empty dataset should fail")
	}
	if _, err := NewDataset([][]float64{{1}}); err == nil {
		t.Fatal("1-dimensional records should fail")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("ragged records should fail")
	}
	if _, err := NewDataset([][]float64{{1, math.NaN()}}); err == nil {
		t.Fatal("NaN attributes should fail")
	}
	if _, err := NewDataset([][]float64{{1, math.Inf(1)}}); err == nil {
		t.Fatal("infinite attributes should fail")
	}
	if _, err := ds.UTK1(Query{K: 0, Region: r}); err == nil {
		t.Fatal("k = 0 should fail")
	}
	if _, err := ds.UTK1(Query{K: 2}); err == nil {
		t.Fatal("missing region should fail")
	}
	wrong, err := NewBoxRegion([]float64{0.2}, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.UTK1(Query{K: 2, Region: wrong}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, err := ds.UTK2(Query{K: 2, Region: r, Algorithm: AlgoBaselineSK}); err == nil {
		t.Fatal("UTK2 via baseline should be rejected")
	}
}

func TestPolytopeRegionQuery(t *testing.T) {
	ds := figure1Dataset(t)
	// Triangle inside the Figure 1 box.
	r, err := NewPolytopeRegion(2, []Halfspace{
		{Coef: []float64{1, 0}, Offset: 0.05},
		{Coef: []float64{0, 1}, Offset: 0.05},
		{Coef: []float64{-1, -1}, Offset: -0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.UTK1(Query{K: 2, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("triangle region should produce a result")
	}
	// The polytope is a superset of the Figure 1 box, so its UTK1 must be a
	// superset of the box's UTK1.
	box := figure1Region(t)
	boxRes, err := ds.UTK1(Query{K: 2, Region: box})
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]bool{}
	for _, id := range res.Records {
		in[id] = true
	}
	for _, id := range boxRes.Records {
		if !in[id] {
			t.Fatalf("box UTK1 record %d missing from enclosing polytope UTK1", id)
		}
	}
}

// TestUTK2ConsistencyOnSurrogate exercises the public API end to end on a
// surrogate workload: every UTK2 cell's set must equal a fresh TopK query at
// the cell's interior, and the union must equal UTK1.
func TestUTK2ConsistencyOnSurrogate(t *testing.T) {
	data := dataset.Hotel(400, 3)
	ds, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewBoxRegion([]float64{0.2, 0.2, 0.2}, []float64{0.3, 0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ds.UTK2(Query{K: 5, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := ds.UTK1(Query{K: 5, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	union := map[int]bool{}
	for _, c := range res2.Cells {
		top, err := ds.TopK(c.Interior, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != len(c.TopK) {
			t.Fatalf("cell set %v, brute force %v", c.TopK, top)
		}
		for i := range top {
			if top[i] != c.TopK[i] {
				t.Fatalf("cell set %v, brute force %v at %v", c.TopK, top, c.Interior)
			}
		}
		for _, id := range c.TopK {
			union[id] = true
		}
	}
	var unionIDs []int
	for id := range union {
		unionIDs = append(unionIDs, id)
	}
	sort.Ints(unionIDs)
	if len(unionIDs) != len(res1.Records) {
		t.Fatalf("UTK2 union %v != UTK1 %v", unionIDs, res1.Records)
	}
	for i := range unionIDs {
		if unionIDs[i] != res1.Records[i] {
			t.Fatalf("UTK2 union %v != UTK1 %v", unionIDs, res1.Records)
		}
	}
}

func TestRegionAccessors(t *testing.T) {
	r := figure1Region(t)
	if r.Dim() != 2 {
		t.Fatalf("Dim = %d", r.Dim())
	}
	p := r.Pivot()
	if !r.Contains(p) {
		t.Fatal("pivot must be inside the region")
	}
	if r.Contains([]float64{0.5, 0.5}) {
		t.Fatal("far point should be outside")
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds := figure1Dataset(t)
	if ds.Len() != 7 || ds.Dim() != 3 {
		t.Fatalf("Len=%d Dim=%d", ds.Len(), ds.Dim())
	}
	rec := ds.Record(0)
	rec[0] = -1
	if ds.Record(0)[0] == -1 {
		t.Fatal("Record must return a copy")
	}
}

func TestRandomizedPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		data := dataset.Synthetic(dataset.Kind(trial%3), 200, 3, int64(trial))
		ds, err := NewDataset(data)
		if err != nil {
			t.Fatal(err)
		}
		lo := []float64{0.1 + rng.Float64()*0.2, 0.1 + rng.Float64()*0.2}
		hi := []float64{lo[0] + 0.1, lo[1] + 0.1}
		r, err := NewBoxRegion(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(5)
		res1, err := ds.UTK1(Query{K: k, Region: r})
		if err != nil {
			t.Fatal(err)
		}
		// Minimality: each UTK1 record must be hit by some cell of UTK2.
		res2, err := ds.UTK2(Query{K: k, Region: r})
		if err != nil {
			t.Fatal(err)
		}
		hit := map[int]bool{}
		for _, c := range res2.Cells {
			for _, id := range c.TopK {
				hit[id] = true
			}
		}
		for _, id := range res1.Records {
			if !hit[id] {
				t.Fatalf("trial %d: UTK1 record %d has no witness cell", trial, id)
			}
		}
		if len(hit) != len(res1.Records) {
			t.Fatalf("trial %d: UTK2 union has %d records, UTK1 %d", trial, len(hit), len(res1.Records))
		}
	}
}
