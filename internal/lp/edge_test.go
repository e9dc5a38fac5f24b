package lp

import (
	"testing"

	"repro/internal/geom"
)

func TestRedundantEqualityRows(t *testing.T) {
	// The second equality duplicates the first; neither solver may read the
	// two pairs as an empty set.
	solveBoth(t, cons(
		con([]float64{1, 1}, eq, 1),
		con([]float64{2, 2}, eq, 2),
		con([]float64{1, 0}, le, 0.6),
		con([]float64{0, 1}, ge, 0),
	), []float64{1, 0}, true, optimal(0.6))
}

func TestZeroRHSDegenerate(t *testing.T) {
	// Degenerate vertex at the origin; must not cycle under Bland's rule.
	solveBoth(t, cons(
		con([]float64{1, 0}, le, 0),
		con([]float64{0, 1}, le, 0),
		con([]float64{1, 0}, ge, 0),
		con([]float64{0, 1}, ge, 0),
	), []float64{1, 1}, true, optimal(0))
}

func TestNoConstraints(t *testing.T) {
	solveBoth(t, nil, []float64{1}, true, unbounded)
	solveBoth(t, nil, []float64{0}, true, optimal(0))
}

// nonneg is x ≥ 0 as explicit half-spaces, one per variable.
func nonneg(n int) []geom.Halfspace {
	var hs []geom.Halfspace
	for j := 0; j < n; j++ {
		unit := make([]float64, n)
		unit[j] = 1
		hs = append(hs, con(unit, ge, 0)...)
	}
	return hs
}

func TestMaximizeNonnegBasics(t *testing.T) {
	// max x + y s.t. x + 2y ≤ 4, x, y ≥ 0 → x = 4.
	kernel, ref := solveBoth(t, cons(con([]float64{1, 2}, le, 4), nonneg(2)), []float64{1, 1}, true, optimal(4))
	for _, x := range [][]float64{kernel.x, ref.x} {
		if x[0] < -1e-9 || x[1] < -1e-9 {
			t.Fatalf("nonneg solution has negative component: %v", x)
		}
	}
	// Empty: x ≤ −1 with x ≥ 0.
	solveBoth(t, cons(con([]float64{1}, le, -1), nonneg(1)), []float64{1}, true, empty)
}

func TestMaximizeNonnegEqualitySimplex(t *testing.T) {
	// λ on the probability simplex, maximize a linear functional.
	solveBoth(t, cons(con([]float64{1, 1, 1}, eq, 1), nonneg(3)), []float64{3, 1, 2}, true, optimal(3))
}

// TestRelStrings pins the relation helper the tests above are written in:
// each relation prints as its symbol and becomes the half-spaces it names.
func TestRelStrings(t *testing.T) {
	for _, c := range []struct {
		r         rel
		symbol    string
		in, out   float64 // x values inside and outside of x r 1
		halfspace int
	}{{le, "<=", 0, 2, 1}, {ge, ">=", 2, 0, 1}, {eq, "==", 1, 2, 2}} {
		hs := con([]float64{1}, c.r, 1)
		if string(c.r) != c.symbol || len(hs) != c.halfspace {
			t.Fatalf("%q: %d half-spaces, want %q and %d", c.r, len(hs), c.symbol, c.halfspace)
		}
		if MinSlack(hs, []float64{c.in}) < 0 || MinSlack(hs, []float64{c.out}) >= 0 {
			t.Fatalf("x %s 1: holds at %g = %v, at %g = %v", c.r, c.in, MinSlack(hs, []float64{c.in}) >= 0, c.out, MinSlack(hs, []float64{c.out}) >= 0)
		}
	}
}

// TestLargeColumnCount: many variables — 500, each with its own x ≥ 0 row —
// and an equality over all of them.
func TestLargeColumnCount(t *testing.T) {
	const m = 500
	obj := make([]float64, m)
	row := make([]float64, m)
	for i := range obj {
		obj[i] = float64(i % 7)
		row[i] = 1
	}
	solveBoth(t, cons(con(row, eq, 1), nonneg(m)), obj, true, optimal(6))
}
