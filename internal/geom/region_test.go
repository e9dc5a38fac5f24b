package geom

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func mustBox(t *testing.T, lo, hi []float64) *Region {
	t.Helper()
	r, err := NewBox(lo, hi)
	if err != nil {
		t.Fatalf("NewBox(%v, %v): %v", lo, hi, err)
	}
	return r
}

func TestNewBoxValidation(t *testing.T) {
	if _, err := NewBox([]float64{0.1}, []float64{0.1}); !errors.Is(err, ErrEmptyRegion) {
		t.Fatalf("degenerate box should report ErrEmptyRegion, got %v", err)
	}
	if _, err := NewBox([]float64{0.2, 0.2}, []float64{0.1, 0.3}); err == nil {
		t.Fatal("inverted box should fail")
	}
	if _, err := NewBox([]float64{-0.2}, []float64{0.3}); err == nil {
		t.Fatal("negative box should fail")
	}
	if _, err := NewBox([]float64{0.6, 0.6}, []float64{0.9, 0.9}); err == nil {
		t.Fatal("box outside the simplex should fail")
	}
	if _, err := NewBox([]float64{0.1, 0.2}, []float64{0.3}); err == nil {
		t.Fatal("mismatched corners should fail")
	}
}

func TestBoxVerticesAndPivot(t *testing.T) {
	r := mustBox(t, []float64{0.1, 0.2}, []float64{0.3, 0.4})
	vs := r.Vertices()
	if len(vs) != 4 {
		t.Fatalf("want 4 vertices, got %d", len(vs))
	}
	pv := r.Pivot()
	if math.Abs(pv[0]-0.2) > 1e-12 || math.Abs(pv[1]-0.3) > 1e-12 {
		t.Fatalf("pivot = %v, want [0.2 0.3]", pv)
	}
	if !r.Contains(pv) {
		t.Fatal("pivot must be inside the region")
	}
}

// TestBoxMatchesHandBuilt checks NewBox bit for bit against a box assembled
// the obvious way: per dimension a lower row e_i·w ≥ lo_i and an upper row
// −e_i·w ≥ −hi_i, the 2^dim corners in bitmask order (bit i picks hi_i), and
// the pivot as the corners' sum in that order over 2^dim. It also requires
// every row, corner and corner list to be capped at its length, so appending
// to one can never write into the next.
func TestBoxMatchesHandBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + trial%6
		lo, hi := make([]float64, dim), make([]float64, dim)
		for i := range lo {
			lo[i] = rng.Float64() / float64(2*dim)
			hi[i] = lo[i] + 1e-6 + rng.Float64()/float64(dim)
		}
		if trial%7 == 0 {
			lo[0] = math.Copysign(0, -1)
		}
		r := mustBox(t, lo, hi)

		var wantHS []Halfspace
		for i := 0; i < dim; i++ {
			aLo, aHi := make([]float64, dim), make([]float64, dim)
			aLo[i], aHi[i] = 1, -1
			wantHS = append(wantHS, Halfspace{A: aLo, B: lo[i]}, Halfspace{A: aHi, B: -hi[i]})
		}
		var wantV [][]float64
		wantP := make([]float64, dim)
		for mask := 0; mask < 1<<dim; mask++ {
			v := make([]float64, dim)
			for i := range v {
				v[i] = lo[i]
				if mask&(1<<i) != 0 {
					v[i] = hi[i]
				}
				wantP[i] += v[i]
			}
			wantV = append(wantV, v)
		}
		for i := range wantP {
			wantP[i] /= float64(len(wantV))
		}

		sameBits := func(what string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: len %d, want %d", trial, what, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %s[%d] = %v, want %v (bitwise)", trial, what, i, got[i], want[i])
				}
			}
		}
		gotHS := r.Halfspaces()
		if len(gotHS) != len(wantHS) {
			t.Fatalf("trial %d: %d half-spaces, want %d", trial, len(gotHS), len(wantHS))
		}
		for i := range gotHS {
			sameBits(fmt.Sprintf("halfspace %d A", i), gotHS[i].A, wantHS[i].A)
			sameBits(fmt.Sprintf("halfspace %d B", i), []float64{gotHS[i].B}, []float64{wantHS[i].B})
		}
		gotV := r.Vertices()
		if len(gotV) != len(wantV) {
			t.Fatalf("trial %d: %d vertices, want %d", trial, len(gotV), len(wantV))
		}
		for i := range gotV {
			sameBits(fmt.Sprintf("vertex %d", i), gotV[i], wantV[i])
		}
		sameBits("pivot", r.Pivot(), wantP)
		bl, bh := r.Bounds()
		sameBits("lo", bl, lo)
		sameBits("hi", bh, hi)

		capped := func(what string, n, c int) {
			t.Helper()
			if n != c {
				t.Fatalf("trial %d %s: len %d but cap %d", trial, what, n, c)
			}
		}
		capped("halfspaces", len(r.halfspaces), cap(r.halfspaces))
		for i, h := range r.halfspaces {
			capped(fmt.Sprintf("halfspace %d", i), len(h.A), cap(h.A))
		}
		capped("vertices", len(r.vertices), cap(r.vertices))
		for i, v := range r.vertices {
			capped(fmt.Sprintf("vertex %d", i), len(v), cap(v))
		}
		capped("lo", len(r.lo), cap(r.lo))
		capped("hi", len(r.hi), cap(r.hi))
		capped("pivot", len(r.pivot), cap(r.pivot))

	}
}

func TestBoxContains(t *testing.T) {
	r := mustBox(t, []float64{0.1, 0.1}, []float64{0.3, 0.3})
	if !r.Contains([]float64{0.2, 0.2}) {
		t.Fatal("interior point should be contained")
	}
	if r.Contains([]float64{0.05, 0.2}) {
		t.Fatal("outside point should not be contained")
	}
	if !r.Contains([]float64{0.1, 0.3}) {
		t.Fatal("boundary point should be contained")
	}
}

func TestClassifyBox(t *testing.T) {
	r := mustBox(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})
	cases := []struct {
		h    Halfspace
		want Side
	}{
		{Halfspace{A: []float64{1, 0}, B: 0.1}, Inside},    // w1 ≥ 0.1 covers box
		{Halfspace{A: []float64{1, 0}, B: 0.5}, Outside},   // w1 ≥ 0.5 misses box
		{Halfspace{A: []float64{1, 0}, B: 0.3}, Straddle},  // w1 ≥ 0.3 cuts box
		{Halfspace{A: []float64{-1, 0}, B: -0.4}, Inside},  // w1 ≤ 0.4 covers box (touching)
		{Halfspace{A: []float64{1, 1}, B: 0.81}, Outside},  // sum ≥ 0.81 barely misses
		{Halfspace{A: []float64{1, 1}, B: 0.79}, Straddle}, // sum ≥ 0.79 cuts corner
	}
	for i, c := range cases {
		if got := r.Classify(c.h); got != c.want {
			t.Errorf("case %d: Classify = %v, want %v", i, got, c.want)
		}
	}
}

// TestClassifyAgainstSampling cross-checks Classify against dense point
// sampling inside random boxes.
func TestClassifyAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(4)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for i := range lo {
			lo[i] = rng.Float64() * 0.3 / float64(dim)
			hi[i] = lo[i] + 0.05 + rng.Float64()*0.2/float64(dim)
		}
		r, err := NewBox(lo, hi)
		if err != nil {
			continue
		}
		h := Halfspace{A: make([]float64, dim), B: rng.NormFloat64() * 0.1}
		for i := range h.A {
			h.A[i] = rng.NormFloat64()
		}
		side := r.Classify(h)
		sawIn, sawOut := false, false
		for s := 0; s < 100; s++ {
			w := make([]float64, dim)
			for i := range w {
				w[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			if h.Eval(w) > 1e-7 {
				sawIn = true
			} else if h.Eval(w) < -1e-7 {
				sawOut = true
			}
		}
		switch side {
		case Inside:
			if sawOut {
				t.Fatalf("trial %d: classified Inside but sampled outside point", trial)
			}
		case Outside:
			if sawIn {
				t.Fatalf("trial %d: classified Outside but sampled inside point", trial)
			}
		}
	}
}

func TestNewPolytope(t *testing.T) {
	// Triangle w1 ≥ 0.1, w2 ≥ 0.1, w1 + w2 ≤ 0.5 in 2-dim domain.
	hs := []Halfspace{
		{A: []float64{1, 0}, B: 0.1},
		{A: []float64{0, 1}, B: 0.1},
		{A: []float64{-1, -1}, B: -0.5},
	}
	r, err := NewPolytope(2, hs)
	if err != nil {
		t.Fatalf("NewPolytope: %v", err)
	}
	if len(r.Vertices()) != 3 {
		t.Fatalf("triangle should have 3 vertices, got %d: %v", len(r.Vertices()), r.Vertices())
	}
	if !r.Contains([]float64{0.2, 0.2}) {
		t.Fatal("triangle should contain its centroid area")
	}
	if r.Contains([]float64{0.3, 0.3}) {
		t.Fatal("triangle should exclude points past the diagonal")
	}
	if got := r.Classify(Halfspace{A: []float64{1, 0}, B: 0.05}); got != Inside {
		t.Fatalf("Classify = %v, want Inside", got)
	}
}

func TestNewPolytopeEmpty(t *testing.T) {
	hs := []Halfspace{
		{A: []float64{1, 0}, B: 0.6},
		{A: []float64{-1, 0}, B: -0.4}, // w1 ≤ 0.4 contradicts w1 ≥ 0.6
	}
	if _, err := NewPolytope(2, hs); !errors.Is(err, ErrEmptyRegion) {
		t.Fatalf("want ErrEmptyRegion, got %v", err)
	}
}

func TestNewPolytopeLowerDimensional(t *testing.T) {
	hs := []Halfspace{
		{A: []float64{1, 0}, B: 0.3},
		{A: []float64{-1, 0}, B: -0.3}, // w1 == 0.3 exactly
	}
	if _, err := NewPolytope(2, hs); !errors.Is(err, ErrEmptyRegion) {
		t.Fatalf("want ErrEmptyRegion for a segment, got %v", err)
	}
}

// tangentHalfspaces returns m random half-spaces tangent to the ball of
// radius r around c, all of them holding the ball.
func tangentHalfspaces(rng *rand.Rand, c []float64, r float64, m int) []Halfspace {
	hs := make([]Halfspace, m)
	for i := range hs {
		u := make([]float64, len(c))
		n := 0.0
		for j := range u {
			u[j] = rng.NormFloat64()
			n += u[j] * u[j]
		}
		b := -r
		for j := range u {
			u[j] = -u[j] / math.Sqrt(n)
			b += u[j] * c[j]
		}
		hs[i] = Halfspace{A: u, B: b}
	}
	return hs
}

// TestNewPolytopeWorkBound: vertex enumeration solves every dim-subset of the
// distinct rows, so a region with more than maxVertexSubsets of them is
// refused before any is solved. Duplicates do not count.
func TestNewPolytopeWorkBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := []float64{0.2, 0.2, 0.2}
	many := tangentHalfspaces(rng, c, 0.05, 200)
	start := time.Now()
	if _, err := NewPolytope(3, many); err == nil || errors.Is(err, ErrEmptyRegion) {
		t.Fatalf("200 half-spaces at dim 3: got %v after %v, want a refusal", err, time.Since(start))
	}
	// 55 rows and the simplex's 4 make C(59, 3) = 32 509 subsets, within the
	// budget, however often each row is repeated.
	fit := tangentHalfspaces(rng, c, 0.05, 55)
	if _, err := NewPolytope(3, slices.Concat(fit, fit, fit)); err != nil {
		t.Fatalf("55 distinct half-spaces at dim 3: %v", err)
	}
	if _, err := NewPolytope(3, tangentHalfspaces(rng, c, 0.05, 56)); err == nil {
		t.Fatal("56 distinct half-spaces at dim 3 (C(60, 3) = 34 220 subsets): accepted")
	}
}

// TestNewPolytopeCheckBound: each solved dim-subset is checked against every
// distinct row, so at dim 1 the checks grow like m² while the subsets stay
// few. Rows tangent to one interval at distinct scales are distinct to the
// dedup yet pass every check, the slowest body there is; past
// maxVertexChecks they are refused before any vertex is solved.
func TestNewPolytopeCheckBound(t *testing.T) {
	tangent := func(m int) []Halfspace {
		hs := make([]Halfspace, m)
		for i := range hs {
			s := 1 + float64(i)/float64(m)
			if i%2 == 0 {
				hs[i] = Halfspace{A: []float64{s}, B: s * 0.15} // w ≥ 0.15
			} else {
				hs[i] = Halfspace{A: []float64{-s}, B: -s * 0.25} // w ≤ 0.25
			}
		}
		return hs
	}
	start := time.Now()
	_, err := NewPolytope(1, tangent(1500))
	if took := time.Since(start); err == nil || errors.Is(err, ErrEmptyRegion) || took > 100*time.Millisecond {
		t.Fatalf("1 500 distinct half-spaces at dim 1: got %v after %v, want a refusal within 100 ms", err, took)
	}
	// 1 412 rows and the simplex's 2 make 1 414² = 1 999 396 checks; one
	// more row makes 2 002 225.
	if _, err := NewPolytope(1, tangent(1412)); err != nil {
		t.Fatalf("1 412 distinct half-spaces at dim 1: %v", err)
	}
	if _, err := NewPolytope(1, tangent(1413)); err == nil {
		t.Fatal("1 413 distinct half-spaces at dim 1: accepted")
	}
}

func TestEnumerateVerticesSquare(t *testing.T) {
	hs := []Halfspace{
		{A: []float64{1, 0}, B: 0.1},
		{A: []float64{-1, 0}, B: -0.3},
		{A: []float64{0, 1}, B: 0.1},
		{A: []float64{0, -1}, B: -0.3},
	}
	vs := EnumerateVertices(2, hs)
	if len(vs) != 4 {
		t.Fatalf("square should have 4 vertices, got %d: %v", len(vs), vs)
	}
}

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, ok := SolveLinearSystem(a, b)
	if !ok {
		t.Fatal("system should be solvable")
	}
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Fatalf("x = %v, want [2 1]", x)
	}
	if _, ok := SolveLinearSystem([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); ok {
		t.Fatal("singular system should fail")
	}
}

func TestRegionVerticesInsideHalfspaces(t *testing.T) {
	r := mustBox(t, []float64{0.05, 0.05, 0.05}, []float64{0.25, 0.25, 0.25})
	for _, v := range r.Vertices() {
		for _, h := range r.Halfspaces() {
			if !h.Contains(v) {
				t.Fatalf("vertex %v violates bounding half-space", v)
			}
		}
	}
}
