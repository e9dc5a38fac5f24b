package arrangement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/lp"
)

// TestCountMonotoneProperty: inserting half-spaces can only grow every
// cell's count, and the minimum count never decreases.
func TestCountMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(3)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for i := range lo {
			lo[i] = 0.1
			hi[i] = 0.1 + 0.2/float64(dim)
		}
		a, err := New(dim, boxHS(lo, hi), 8, nil)
		if err != nil {
			return false
		}
		prevMin := a.MinCount()
		for id := 0; id < 6; id++ {
			h := geom.Halfspace{A: make([]float64, dim)}
			for i := range h.A {
				h.A[i] = rng.NormFloat64()
			}
			mid := make([]float64, dim)
			for i := range mid {
				mid[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			for i := range h.A {
				h.B += h.A[i] * mid[i]
			}
			a.Insert(id, h)
			if mn := a.MinCount(); mn < prevMin {
				return false
			} else {
				prevMin = mn
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCountEqualsCoveringProperty: in every cell, Count() equals the
// cardinality of the covering set, and the covering set only references
// inserted ids.
func TestCountEqualsCoveringProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(2)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for i := range lo {
			lo[i] = 0.2
			hi[i] = 0.4
		}
		nHS := 5
		a, err := New(dim, boxHS(lo, hi), nHS, nil)
		if err != nil {
			return false
		}
		for id := 0; id < nHS; id++ {
			h := geom.Halfspace{A: make([]float64, dim), B: rng.NormFloat64() * 0.2}
			for i := range h.A {
				h.A[i] = rng.NormFloat64()
			}
			a.Insert(id, h)
		}
		for _, c := range a.Cells() {
			if c.Count() != c.Covering().Count() {
				return false
			}
			bad := false
			c.Covering().ForEach(func(id int) bool {
				if id >= nHS {
					bad = true
					return false
				}
				return true
			})
			if bad {
				return false
			}
			// The interior point must satisfy every cell constraint.
			for _, h := range c.Constraints() {
				if h.Eval(c.Interior()) < -1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkInteriorSlack fails unless every leaf's interior point has normalized
// slack above lp.SlackEps against every constraint of its cell — the
// full-dimensionality rule, whichever way the point was obtained (LP, parent
// reuse, caller's hint).
func checkInteriorSlack(t *testing.T, a *Arrangement) {
	t.Helper()
	for _, c := range a.Cells() {
		if lp.MinSlack(c.Constraints(), c.Interior()) <= lp.SlackEps {
			t.Fatalf("interior point %v is not strictly inside its cell", c.Interior())
		}
	}
}

// TestInteriorReuseKeepsSlack: after deep chains of splits, every cell's
// interior point keeps a normalized slack above the tolerance against all
// constraints (neither the parent-interior reuse nor an accepted hint may
// degrade below it).
func TestInteriorReuseKeepsSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := boxHS([]float64{0.1, 0.1}, []float64{0.5, 0.5})
	plain, err := New(2, base, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := NewWith(2, base, 16, nil, nil, []float64{0.1 + 1e-6, 0.5 - 1e-6}) // barely inside
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 12; id++ {
		h := geom.Halfspace{A: []float64{rng.NormFloat64(), rng.NormFloat64()}}
		h.B = h.A[0]*(0.1+rng.Float64()*0.4) + h.A[1]*(0.1+rng.Float64()*0.4)
		plain.Insert(id, h)
		hinted.Insert(id, h)
	}
	checkInteriorSlack(t, plain)
	checkInteriorSlack(t, hinted)
}

// TestInteriorHintAcceptance: a hint strictly inside the base region becomes
// the root interior with no LP; a hint on the boundary, within the tolerance
// of it, or outside only seeds the LP, which still finds a strict interior.
func TestInteriorHintAcceptance(t *testing.T) {
	base := boxHS([]float64{0.1, 0.1}, []float64{0.3, 0.3})
	good := []float64{0.12, 0.29}
	st := &Stats{}
	a, err := NewWith(2, base, 4, st, nil, good)
	if err != nil {
		t.Fatal(err)
	}
	if st.LPCalls != 0 || &a.Cells()[0].Interior()[0] != &good[0] {
		t.Fatalf("strict hint: %d LPs, interior %v", st.LPCalls, a.Cells()[0].Interior())
	}
	for _, hint := range [][]float64{
		nil,
		{0.1, 0.2},        // on a facet
		{0.1 + 5e-8, 0.2}, // inside, but by less than SlackEps
		{0.3, 0.3},        // on a vertex
		{0.35, 0.2},       // outside
		{-4, 7},           // far outside
	} {
		st := &Stats{}
		a, err := NewWith(2, base, 4, st, nil, hint)
		if err != nil {
			t.Fatalf("hint %v: %v", hint, err)
		}
		if st.LPCalls != 1 {
			t.Fatalf("hint %v: %d LPs, want the fallback LP", hint, st.LPCalls)
		}
		checkInteriorSlack(t, a)
	}
	// No hint rescues an empty or lower-dimensional base.
	flat := append(boxHS([]float64{0.1, 0.1}, []float64{0.3, 0.3}), geom.Halfspace{A: []float64{1, 0}, B: 0.3})
	if _, err := NewWith(2, flat, 4, nil, nil, []float64{0.3, 0.2}); err == nil {
		t.Fatal("lower-dimensional base accepted")
	}
	if _, err := NewWith(2, append(base, geom.Halfspace{A: []float64{0, 0}, B: 1}), 4, nil, nil, good); err == nil {
		t.Fatal("base with a trivially false half-space accepted")
	}
}

// TestInteriorHintSameArrangement: the cells of an arrangement are decided by
// which hyperplanes properly cut which cells, not by where interior points
// sit — so one built from a caller's hint and one built from the LP's center
// have the same number of cells, and agree with direct evaluation (the
// TestCountsAgainstSampling oracle) on count and covering set at sampled
// points. The second level mirrors the refinement recursion: a leaf's
// constraints and Interior() seed a nested arrangement.
func TestInteriorHintSameArrangement(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	randomCut := func(dim int, lo, hi []float64) geom.Halfspace {
		h := geom.Halfspace{A: make([]float64, dim)}
		for i := range h.A {
			h.A[i] = rng.NormFloat64()
			h.B += h.A[i] * (lo[i] + rng.Float64()*(hi[i]-lo[i]))
		}
		return h
	}
	// locate returns the one cell containing w, or nil when w is within 1e-6
	// of some boundary (where membership is a matter of tolerance).
	locate := func(a *Arrangement, w []float64) *Cell {
		var hit *Cell
		for _, c := range a.Cells() {
			in := true
			for _, h := range c.Constraints() {
				if e := h.Eval(w); e < 1e-6 {
					if e > -1e-6 {
						return nil
					}
					in = false
					break
				}
			}
			if in {
				if hit != nil {
					t.Fatalf("point %v lies in two cells", w)
				}
				hit = c
			}
		}
		return hit
	}
	compare := func(trial int, base []geom.Halfspace, lo, hi []float64, hint []float64, cuts []geom.Halfspace) *Arrangement {
		dim := len(lo)
		plain, err := New(dim, base, len(cuts), nil)
		if err != nil {
			t.Fatal(err)
		}
		hinted, err := NewWith(dim, base, len(cuts), nil, nil, hint)
		if err != nil {
			t.Fatal(err)
		}
		for id, h := range cuts {
			plain.Insert(id, h)
			hinted.Insert(id, h)
		}
		if len(plain.Cells()) != len(hinted.Cells()) {
			t.Fatalf("trial %d: %d cells without the hint, %d with it", trial, len(plain.Cells()), len(hinted.Cells()))
		}
		checkInteriorSlack(t, hinted)
		for s := 0; s < 200; s++ {
			w := make([]float64, dim)
			for i := range w {
				w[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			cp, ch := locate(plain, w), locate(hinted, w)
			if (cp == nil) != (ch == nil) {
				t.Fatalf("trial %d: point %v located in one arrangement only", trial, w)
			}
			if cp == nil {
				continue
			}
			want := 0
			for id, h := range cuts {
				in := h.Eval(w) > 0
				if in {
					want++
				}
				if cp.Covering().Has(id) != in || ch.Covering().Has(id) != in {
					t.Fatalf("trial %d: covering of half-space %d wrong at %v", trial, id, w)
				}
			}
			if cp.Count() != want || ch.Count() != want {
				t.Fatalf("trial %d: counts %d / %d at %v, want %d", trial, cp.Count(), ch.Count(), w, want)
			}
		}
		return hinted
	}
	for trial := 0; trial < 40; trial++ {
		dim := 1 + rng.Intn(4)
		lo, hi, hint := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		for i := range lo {
			lo[i] = 0.05 + rng.Float64()*0.1
			hi[i] = lo[i] + 0.1 + rng.Float64()*0.2/float64(dim)
			hint[i] = lo[i] + (0.02+0.96*rng.Float64())*(hi[i]-lo[i]) // anywhere inside, centred or not
		}
		cuts := make([]geom.Halfspace, 6)
		for i := range cuts {
			cuts[i] = randomCut(dim, lo, hi)
		}
		top := compare(trial, boxHS(lo, hi), lo, hi, hint, cuts)
		// One level down, as partition/verify recurse: a leaf is the base, its
		// interior the hint.
		leaf := top.Cells()[rng.Intn(len(top.Cells()))]
		for i := range cuts {
			cuts[i] = randomCut(dim, lo, hi)
		}
		compare(trial, leaf.Constraints(), lo, hi, leaf.Interior(), cuts)
	}
}
