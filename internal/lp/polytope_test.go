package lp

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// boxHalfspaces builds the H-representation of [lo, hi].
func boxHalfspaces(lo, hi []float64) []geom.Halfspace {
	var hs []geom.Halfspace
	for i := range lo {
		a := make([]float64, len(lo))
		a[i] = 1
		hs = append(hs, geom.Halfspace{A: a, B: lo[i]})
		b := make([]float64, len(lo))
		b[i] = -1
		hs = append(hs, geom.Halfspace{A: b, B: -hi[i]})
	}
	return hs
}

func TestInteriorPointBox(t *testing.T) {
	hs := boxHalfspaces([]float64{0.1, 0.1}, []float64{0.3, 0.3})
	pt, slack, ok := InteriorPoint(2, hs, nil)
	if !ok {
		t.Fatal("box should have an interior point")
	}
	if slack < 0.09 {
		t.Fatalf("max slack %g, want ~0.1 (half the side)", slack)
	}
	for _, h := range hs {
		if h.Eval(pt) < SlackEps {
			t.Fatalf("interior point %v too close to boundary", pt)
		}
	}
}

func TestInteriorPointEmpty(t *testing.T) {
	hs := []geom.Halfspace{
		{A: []float64{1}, B: 0.5},
		{A: []float64{-1}, B: -0.4}, // x ≤ 0.4 contradicts x ≥ 0.5
	}
	if _, _, ok := InteriorPoint(1, hs, nil); ok {
		t.Fatal("empty intersection should have no interior point")
	}
}

func TestInteriorPointDegenerate(t *testing.T) {
	hs := []geom.Halfspace{
		{A: []float64{1}, B: 0.5},
		{A: []float64{-1}, B: -0.5}, // x == 0.5 exactly
	}
	if _, _, ok := InteriorPoint(1, hs, nil); ok {
		t.Fatal("lower-dimensional set should be rejected")
	}
}

func TestInteriorPointTrivialHalfspaces(t *testing.T) {
	hs := boxHalfspaces([]float64{0.1}, []float64{0.2})
	hs = append(hs, geom.Halfspace{A: []float64{0}, B: -1}) // trivially true
	if _, _, ok := InteriorPoint(1, hs, nil); !ok {
		t.Fatal("trivially-true half-space must not break feasibility")
	}
	hs = append(hs, geom.Halfspace{A: []float64{0}, B: 1}) // trivially false
	if _, _, ok := InteriorPoint(1, hs, nil); ok {
		t.Fatal("trivially-false half-space must force infeasibility")
	}
}

func TestOptimizeLinear(t *testing.T) {
	hs := boxHalfspaces([]float64{0.1, 0.2}, []float64{0.4, 0.5})
	pt, val, ok := OptimizeLinear(2, hs, []float64{1, 2}, true, nil)
	if !ok {
		t.Fatal("bounded LP should solve")
	}
	if math.Abs(val-1.4) > 1e-7 {
		t.Fatalf("max = %g, want 1.4", val)
	}
	if math.Abs(pt[0]-0.4) > 1e-7 || math.Abs(pt[1]-0.5) > 1e-7 {
		t.Fatalf("argmax = %v, want [0.4 0.5]", pt)
	}
	_, val, ok = OptimizeLinear(2, hs, []float64{1, 2}, false, []float64{0.2, 0.3})
	if !ok || math.Abs(val-0.5) > 1e-7 {
		t.Fatalf("min = %g (ok=%v), want 0.5", val, ok)
	}
}

// TestExtremes is the arrangement's classification step: minimum and maximum
// of a half-space's functional over a cell, both from the cell's interior.
func TestExtremes(t *testing.T) {
	cell := boxHalfspaces([]float64{0, 0}, []float64{1, 1})
	h := geom.Halfspace{A: []float64{1, 1}, B: 1} // x + y ≥ 1
	interior := []float64{0.5, 0.5}
	minPt, mn, ok1 := OptimizeLinear(2, cell, h.A, false, interior)
	maxPt, mx, ok2 := OptimizeLinear(2, cell, h.A, true, interior)
	if !ok1 || !ok2 {
		t.Fatal("extremes over box should solve")
	}
	if math.Abs(mn-h.B+1) > 1e-7 || math.Abs(mx-h.B-1) > 1e-7 {
		t.Fatalf("extremes = [%g, %g], want [−1, 1]", mn-h.B, mx-h.B)
	}
	if math.Abs(h.Eval(minPt)-(mn-h.B)) > 1e-7 || math.Abs(h.Eval(maxPt)-(mx-h.B)) > 1e-7 {
		t.Fatal("witness points should achieve the extremes")
	}
}

// TestFeasible: without a usable start the kernel finds its own, and reports
// an empty set instead of optimizing over nothing.
func TestFeasible(t *testing.T) {
	hs := boxHalfspaces([]float64{0.1}, []float64{0.2})
	for _, start := range [][]float64{nil, {0.15}, {0.7}} {
		if pt, _, ok := OptimizeLinear(1, hs, []float64{0}, true, start); !ok || pt[0] < 0.1-1e-9 || pt[0] > 0.2+1e-9 {
			t.Fatalf("start %v: non-empty box should be feasible, got %v ok=%v", start, pt, ok)
		}
	}
	hs = append(hs, geom.Halfspace{A: []float64{1}, B: 0.9})
	for _, start := range [][]float64{nil, {0.15}, {0.95}} {
		if _, _, ok := OptimizeLinear(1, hs, []float64{0}, true, start); ok {
			t.Fatalf("start %v: contradictory constraints should be infeasible", start)
		}
	}
}
