package geom

import (
	"testing"
)

func TestContainsRegionBoxes(t *testing.T) {
	outer := mustBox(t, []float64{0.1, 0.1}, []float64{0.5, 0.5})
	cases := []struct {
		name  string
		inner *Region
		want  bool
	}{
		{"nested", mustBox(t, []float64{0.2, 0.2}, []float64{0.3, 0.3}), true},
		{"equal", mustBox(t, []float64{0.1, 0.1}, []float64{0.5, 0.5}), true},
		{"shared-edge", mustBox(t, []float64{0.1, 0.2}, []float64{0.3, 0.5}), true},
		{"overlapping", mustBox(t, []float64{0.3, 0.3}, []float64{0.6, 0.6}), false},
		{"disjoint", mustBox(t, []float64{0.55, 0.05}, []float64{0.65, 0.15}), false},
		{"containing", mustBox(t, []float64{0.05, 0.05}, []float64{0.55, 0.55}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := outer.ContainsRegion(tc.inner); got != tc.want {
				t.Errorf("ContainsRegion = %v, want %v", got, tc.want)
			}
		})
	}
	if outer.ContainsRegion(nil) {
		t.Error("nil region reported contained")
	}
	if outer.ContainsRegion(mustBox(t, []float64{0.2, 0.2, 0.2}, []float64{0.3, 0.3, 0.3})) {
		t.Error("dimension mismatch reported contained")
	}
}

func TestContainsRegionPolytopes(t *testing.T) {
	box := mustBox(t, []float64{0.1, 0.1}, []float64{0.4, 0.4})
	// A triangle inside the box: w0 ≥ 0.2, w1 ≥ 0.2, w0+w1 ≤ 0.6.
	tri, err := NewPolytope(2, []Halfspace{
		{A: []float64{1, 0}, B: 0.2},
		{A: []float64{0, 1}, B: 0.2},
		{A: []float64{-1, -1}, B: -0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !box.ContainsRegion(tri) {
		t.Error("box does not contain its inner triangle")
	}
	if tri.ContainsRegion(box) {
		t.Error("triangle claims to contain its bounding box")
	}
	// Box inside a polytope: the simplex-wide polytope contains everything.
	wide, err := NewPolytope(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !wide.ContainsRegion(box) || !wide.ContainsRegion(tri) {
		t.Error("simplex polytope does not contain its subsets")
	}
}

func TestClipConstraints(t *testing.T) {
	r := mustBox(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})
	cell := mustBox(t, []float64{0.1, 0.1}, []float64{0.5, 0.5}).Halfspaces()
	merged := r.ClipConstraints(cell)
	if want := len(cell) + 4; len(merged) != want {
		t.Fatalf("merged %d constraints, want %d", len(merged), want)
	}
	// The merged set bounds exactly the intersection = r here.
	for _, w := range [][]float64{{0.3, 0.3}, {0.2, 0.4}} {
		for _, h := range merged {
			if !h.Contains(w) {
				t.Errorf("point %v inside r violates merged constraint", w)
			}
		}
	}
	outside := []float64{0.15, 0.3} // inside the cell, outside r
	ok := true
	for _, h := range merged {
		if !h.Contains(outside) {
			ok = false
		}
	}
	if ok {
		t.Error("point outside r satisfies all merged constraints")
	}
	// Clipping a cell against its own region adds nothing.
	self := r.ClipConstraints(r.Halfspaces())
	if len(self) != 4 {
		t.Errorf("self-clip has %d constraints, want 4", len(self))
	}
	// The inputs are not mutated.
	if len(cell) != 4 {
		t.Errorf("input slice length changed to %d", len(cell))
	}
}

func TestInteriorBy(t *testing.T) {
	r := mustBox(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})
	if !r.InteriorBy([]float64{0.3, 0.3}, 0.05) {
		t.Error("center not interior by 0.05")
	}
	if r.InteriorBy([]float64{0.21, 0.3}, 0.05) {
		t.Error("near-boundary point interior by 0.05")
	}
	if r.InteriorBy([]float64{0.5, 0.3}, 0.01) {
		t.Error("outside point reported interior")
	}
	tri, err := NewPolytope(2, []Halfspace{{A: []float64{1, 1}, B: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if !tri.InteriorBy([]float64{0.4, 0.4}, 0.01) {
		t.Error("deep polytope point not interior")
	}
	if tri.InteriorBy([]float64{0.2, 0.2}, 0.01) {
		t.Error("boundary polytope point reported interior by margin")
	}
}
