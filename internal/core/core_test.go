package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/rtree"
)

func mustBox(t *testing.T, lo, hi []float64) *geom.Region {
	t.Helper()
	r, err := geom.NewBox(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func buildTree(t *testing.T, data [][]float64) *rtree.Tree {
	t.Helper()
	tr, err := rtree.BulkLoad(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomData(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		pts[i] = p
	}
	return pts
}

// randomBox draws a random full-dimensional query box inside the preference
// domain.
func randomBox(rng *rand.Rand, dim int) *geom.Region {
	for {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		sum := 0.0
		for i := range lo {
			lo[i] = rng.Float64() * 0.5 / float64(dim)
			hi[i] = lo[i] + 0.05 + rng.Float64()*0.3/float64(dim)
			sum += lo[i]
		}
		if sum >= 0.95 {
			continue
		}
		r, err := geom.NewBox(lo, hi)
		if err == nil {
			return r
		}
	}
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPaperExample reproduces the running example of Figure 1: seven hotels,
// k = 2, R = [0.05, 0.45] × [0.05, 0.25]; the UTK1 result must be
// {p1, p2, p4, p6} (ids 0, 1, 3, 5).
func TestPaperExample(t *testing.T) {
	data := [][]float64{
		{8.3, 9.1, 7.2}, // p1
		{2.4, 9.6, 8.6}, // p2
		{5.4, 1.6, 4.1}, // p3
		{2.6, 6.9, 9.4}, // p4
		{7.3, 3.1, 2.4}, // p5
		{7.9, 6.4, 6.6}, // p6
		{8.6, 7.1, 4.3}, // p7
	}
	r := mustBox(t, []float64{0.05, 0.05}, []float64{0.45, 0.25})
	tree := buildTree(t, data)
	got, st, err := RSA(tree, r, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	want := []int{0, 1, 3, 5}
	if !equalIDs(got, want) {
		t.Fatalf("UTK1 = %v, want %v", got, want)
	}
	if st.Candidates == 0 {
		t.Fatal("stats should record candidates")
	}

	// UTK2 on the same data: the cells must include the four sets of
	// Figure 1(b): {p2,p4}, {p1,p4}, {p1,p2}, {p1,p6}.
	cells, _, err := JAA(tree, r, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, c := range cells {
		key := ""
		for _, id := range c.TopK {
			key += string(rune('a' + id))
		}
		found[key] = true
	}
	for _, want := range []string{"bd", "ad", "ab", "af"} { // id pairs {1,3},{0,3},{0,1},{0,5}
		if !found[want] {
			t.Fatalf("UTK2 missing top-2 set %q; got %v", want, found)
		}
	}
	if len(found) != 4 {
		t.Fatalf("UTK2 found %d distinct sets, want 4: %v", len(found), found)
	}
}

// TestRSAMatchesOracle cross-validates RSA against the full-arrangement
// oracle on randomized small instances across dimensions and k.
func TestRSAMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	cases := []struct {
		d, n, k, trials int
	}{
		{2, 20, 1, 12},
		{2, 20, 3, 12},
		{3, 14, 1, 10},
		{3, 14, 2, 10},
		{3, 12, 4, 8},
		{4, 10, 2, 6},
	}
	for _, cs := range cases {
		for trial := 0; trial < cs.trials; trial++ {
			data := randomData(rng, cs.n, cs.d)
			r := randomBox(rng, cs.d-1)
			tree := buildTree(t, data)
			got, _, err := RSA(tree, r, cs.k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sort.Ints(got)
			want := oracle.UTK1(data, r, cs.k)
			if !equalIDs(got, want) {
				t.Fatalf("d=%d n=%d k=%d trial %d: RSA %v != oracle %v",
					cs.d, cs.n, cs.k, trial, got, want)
			}
		}
	}
}

// TestJAAMatchesOracle validates the UTK2 output: for every oracle cell
// interior point, the containing JAA cell must carry the same top-k set, and
// every JAA cell interior must agree with a brute-force probe.
func TestJAAMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	cases := []struct {
		d, n, k, trials int
	}{
		{2, 18, 2, 10},
		{3, 12, 2, 8},
		{3, 12, 3, 6},
		{4, 9, 2, 4},
	}
	for _, cs := range cases {
		for trial := 0; trial < cs.trials; trial++ {
			data := randomData(rng, cs.n, cs.d)
			r := randomBox(rng, cs.d-1)
			tree := buildTree(t, data)
			cells, _, err := JAA(tree, r, cs.k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Every JAA cell's interior must match a brute-force probe.
			for _, c := range cells {
				want := oracle.TopKAt(data, c.Interior, cs.k)
				if !equalIDs(c.TopK, want) {
					t.Fatalf("d=%d k=%d trial %d: cell at %v has %v, brute force %v",
						cs.d, cs.k, trial, c.Interior, c.TopK, want)
				}
			}
			// Every oracle cell interior must be covered by exactly one JAA
			// cell with the right set.
			for _, oc := range oracle.ExactCells(data, r, cs.k) {
				hits := 0
				for _, c := range cells {
					inside := true
					for _, h := range c.Constraints {
						if h.Eval(oc.Interior) < -1e-7 {
							inside = false
							break
						}
					}
					if inside {
						hits++
						if !equalIDs(c.TopK, oc.TopK) {
							t.Fatalf("d=%d k=%d trial %d: point %v: JAA set %v != oracle %v",
								cs.d, cs.k, trial, oc.Interior, c.TopK, oc.TopK)
						}
					}
				}
				if hits == 0 {
					t.Fatalf("d=%d k=%d trial %d: oracle interior %v not covered by any JAA cell",
						cs.d, cs.k, trial, oc.Interior)
				}
			}
		}
	}
}

// TestJAACellsPartition checks disjointness and coverage of the UTK2 cells
// at random sample points, and that UTK1 equals the union of UTK2 sets.
func TestJAACellsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	for trial := 0; trial < 10; trial++ {
		d := 2 + rng.Intn(2)
		data := randomData(rng, 16, d)
		r := randomBox(rng, d-1)
		tree := buildTree(t, data)
		k := 1 + rng.Intn(3)
		cells, _, err := JAA(tree, r, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		utk1, _, err := RSA(tree, r, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(utk1)
		union := map[int]bool{}
		for _, c := range cells {
			for _, id := range c.TopK {
				union[id] = true
			}
		}
		if len(union) != len(utk1) {
			t.Fatalf("trial %d: UTK2 union size %d != UTK1 size %d", trial, len(union), len(utk1))
		}
		for _, id := range utk1 {
			if !union[id] {
				t.Fatalf("trial %d: UTK1 record %d missing from UTK2 union", trial, id)
			}
		}
		// Sampled coverage: every sampled w lies in ≥ 1 cell whose set
		// matches the brute-force top-k (boundary samples may hit 2 cells).
		for _, w := range oracle.SamplePoints(r, 150, rng) {
			want := oracle.TopKAt(data, w, k)
			matched := false
			covers := 0
			for _, c := range cells {
				inside := true
				strict := true
				for _, h := range c.Constraints {
					e := h.Eval(w)
					if e < -1e-7 {
						inside = false
						break
					}
					if e < 1e-7 {
						strict = false
					}
				}
				if inside {
					covers++
					if equalIDs(c.TopK, want) {
						matched = true
					} else if strict {
						t.Fatalf("trial %d: w=%v strictly inside cell with %v, brute force %v",
							trial, w, c.TopK, want)
					}
				}
			}
			if covers == 0 {
				t.Fatalf("trial %d: sample %v not covered", trial, w)
			}
			if !matched && covers == 1 {
				t.Fatalf("trial %d: sample %v covered once but set mismatched", trial, w)
			}
		}
	}
}

// TestJAAPolytopeRegion runs JAA over a general (non-box) polytope region:
// every cell's top-k set must match brute force at its interior, the cells'
// union must equal RSA's answer, and on a small instance every oracle cell
// must be covered by a JAA cell carrying the oracle's top-k set.
func TestJAAPolytopeRegion(t *testing.T) {
	r, err := geom.NewPolytope(2, []geom.Halfspace{
		{A: []float64{1, 0}, B: 0.1},
		{A: []float64{-1, 0}, B: -0.5},
		{A: []float64{0, 1}, B: 0.1},
		{A: []float64{-1, -1}, B: -0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(902))
	for _, n := range []int{200, 14} {
		data := randomData(rng, n, 3)
		tree := buildTree(t, data)
		const k = 4
		cells, _, err := JAA(tree, r, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		union := map[int]bool{}
		for i, c := range cells {
			if want := topKBrute(data, c.Interior, k); !equalIDs(c.TopK, want) {
				t.Fatalf("n=%d cell %d: top-k %v, brute force %v", n, i, c.TopK, want)
			}
			for _, id := range c.TopK {
				union[id] = true
			}
		}
		ids, _, err := RSA(tree, r, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(union) {
			t.Fatalf("n=%d: UTK2 union has %d ids, UTK1 %d", n, len(union), len(ids))
		}
		for _, id := range ids {
			if !union[id] {
				t.Fatalf("n=%d: UTK1 record %d missing from the UTK2 union", n, id)
			}
		}
		if n > 20 {
			continue // the oracle arrangement is quadratic in n
		}
		for _, oc := range oracle.ExactCells(data, r, k) {
			covered := false
			for _, c := range cells {
				inside := true
				for _, h := range c.Constraints {
					if h.Eval(oc.Interior) < -1e-7 {
						inside = false
						break
					}
				}
				if inside {
					covered = true
					if !equalIDs(c.TopK, oc.TopK) {
						t.Fatalf("oracle point %v: JAA set %v != oracle %v", oc.Interior, c.TopK, oc.TopK)
					}
				}
			}
			if !covered {
				t.Fatalf("oracle interior %v not covered by any JAA cell", oc.Interior)
			}
		}
	}
}

// TestRSAOptionsEquivalent verifies the ablation switches do not change
// results.
func TestRSAOptionsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	for trial := 0; trial < 8; trial++ {
		d := 2 + rng.Intn(3)
		data := randomData(rng, 18, d)
		r := randomBox(rng, d-1)
		tree := buildTree(t, data)
		k := 1 + rng.Intn(3)
		base, _, err := RSA(tree, r, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(base)
		for _, opt := range []Options{
			{DisableDrill: true},
			{LinearDrill: true},
		} {
			got, _, err := RSA(tree, r, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			sort.Ints(got)
			if !equalIDs(got, base) {
				t.Fatalf("trial %d: options %+v changed result: %v vs %v", trial, opt, got, base)
			}
		}
	}
}

func TestEdgeCases(t *testing.T) {
	r := mustBox(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})
	data := randomData(rand.New(rand.NewSource(1)), 5, 3)
	tree := buildTree(t, data)

	// k ≥ n: everything is in the result, single partition.
	got, _, err := RSA(tree, r, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("k ≥ n should return all records, got %d", len(got))
	}
	cells, _, err := JAA(tree, r, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || len(cells[0].TopK) != 5 {
		t.Fatalf("k ≥ n should produce one cell with all records, got %+v", cells)
	}

	// Invalid inputs.
	if _, _, err := RSA(tree, r, 0, Options{}); err == nil {
		t.Fatal("k = 0 should fail")
	}
	bad := mustBox(t, []float64{0.2}, []float64{0.4})
	if _, _, err := RSA(tree, bad, 2, Options{}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, _, err := JAA(tree, bad, 2, Options{}); err == nil {
		t.Fatal("dimension mismatch should fail for JAA")
	}
	if _, _, err := RSA(nil, r, 2, Options{}); err == nil {
		t.Fatal("nil tree should fail")
	}
}

func TestDuplicateRecords(t *testing.T) {
	// Exact duplicates must not break tie handling; with k=2 both duplicates
	// of the best record should appear.
	data := [][]float64{
		{9, 9, 9},
		{9, 9, 9},
		{1, 1, 1},
		{5, 4, 3},
	}
	r := mustBox(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})
	tree := buildTree(t, data)
	got, _, err := RSA(tree, r, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	if !equalIDs(got, []int{0, 1}) {
		t.Fatalf("UTK1 with duplicates = %v, want [0 1]", got)
	}
	cells, _, err := JAA(tree, r, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if !equalIDs(c.TopK, []int{0, 1}) {
			t.Fatalf("UTK2 with duplicates produced set %v", c.TopK)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	data := randomData(rng, 40, 3)
	r := mustBox(t, []float64{0.1, 0.1}, []float64{0.4, 0.4})
	tree := buildTree(t, data)
	_, st, err := JAA(tree, r, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates == 0 || st.Partitions == 0 || st.PeakBytes == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.UniqueTopKSets > st.Partitions {
		t.Fatalf("unique sets %d exceed partitions %d", st.UniqueTopKSets, st.Partitions)
	}
}
