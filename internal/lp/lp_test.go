package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The classic LPs below were written for a general LE/GE/EQ solver. Each is
// restated as half-spaces and solved twice — on the cell kernel
// (OptimizeLinear from a nil start) and on the exact reference — and both
// answers are held to the optimum known by hand, which tests the reference
// too.

// rel is a constraint relation; con turns coef·x rel rhs into half-spaces.
type rel string

const (
	le rel = "<="
	ge rel = ">="
	eq rel = "==" // a complementary pair of half-spaces
)

func con(coef []float64, r rel, rhs float64) []geom.Halfspace {
	h := geom.Halfspace{A: coef, B: rhs}
	switch r {
	case le:
		return []geom.Halfspace{h.Negate()}
	case ge:
		return []geom.Halfspace{h}
	}
	return []geom.Halfspace{h, h.Negate()}
}

func cons(groups ...[]geom.Halfspace) []geom.Halfspace {
	var hs []geom.Halfspace
	for _, g := range groups {
		hs = append(hs, g...)
	}
	return hs
}

// outcome is what an LP comes to: "optimal" with a value and an optimizer,
// "empty" or "unbounded".
type outcome struct {
	status string
	value  float64
	x      []float64
}

func optimal(v float64) outcome { return outcome{status: "optimal", value: v} }

var (
	empty     = outcome{status: "empty"}
	unbounded = outcome{status: "unbounded"}
)

// solveKernel is OptimizeLinear from a nil start; when it finds no optimum,
// the start-finder's own verdict tells an empty set from an unbounded
// objective.
func solveKernel(hs []geom.Halfspace, obj []float64, maximize bool) outcome {
	if x, v, ok := OptimizeLinear(len(obj), hs, obj, maximize, nil); ok {
		return outcome{"optimal", v, x}
	}
	if _, slack, ok := new(Workspace).center(len(obj), hs, nil); !ok || slack < -tol {
		return empty
	}
	return unbounded
}

func solveReference(hs []geom.Halfspace, obj []float64, maximize bool) outcome {
	switch r := solveExact(len(obj), hs, obj, maximize); {
	case r.slack < 0:
		return empty
	case !r.bounded:
		return unbounded
	default:
		return outcome{"optimal", r.value, r.x}
	}
}

// solveBoth checks the kernel (optimum within 1e-7) and the reference (within
// 1e-12: the rounding of the inputs and of the answer only) against want.
func solveBoth(t *testing.T, hs []geom.Halfspace, obj []float64, maximize bool, want outcome) (kernel, ref outcome) {
	t.Helper()
	kernel, ref = solveKernel(hs, obj, maximize), solveReference(hs, obj, maximize)
	for _, s := range []struct {
		name string
		got  outcome
		tol  float64
	}{{"kernel", kernel, 1e-7}, {"exact", ref, 1e-12}} {
		if s.got.status != want.status || math.Abs(s.got.value-want.value) > s.tol {
			t.Fatalf("%s: %s %g at %v, want %s %g", s.name, s.got.status, s.got.value, s.got.x, want.status, want.value)
		}
	}
	return kernel, ref
}

func TestMaximizeSimple(t *testing.T) {
	// max x + y  s.t. x ≤ 2, y ≤ 3, x + y ≤ 4, x,y ≥ 0
	solveBoth(t, cons(
		con([]float64{1, 0}, le, 2),
		con([]float64{0, 1}, le, 3),
		con([]float64{1, 1}, le, 4),
		con([]float64{1, 0}, ge, 0),
		con([]float64{0, 1}, ge, 0),
	), []float64{1, 1}, true, optimal(4))
}

func TestMinimize(t *testing.T) {
	// min 2x + 3y  s.t. x + y ≥ 10, x ≥ 0, y ≥ 0 ⇒ x = 10, y = 0, value 20.
	solveBoth(t, cons(
		con([]float64{1, 1}, ge, 10),
		con([]float64{1, 0}, ge, 0),
		con([]float64{0, 1}, ge, 0),
	), []float64{2, 3}, false, optimal(20))
}

func TestFreeVariables(t *testing.T) {
	// Negative optimum requires genuinely free variables:
	// max x  s.t. x ≤ −5.
	solveBoth(t, con([]float64{1}, le, -5), []float64{1}, true, optimal(-5))
}

func TestInfeasible(t *testing.T) {
	solveBoth(t, cons(
		con([]float64{1}, ge, 2),
		con([]float64{1}, le, 1),
	), []float64{1}, true, empty)
}

func TestUnbounded(t *testing.T) {
	solveBoth(t, con([]float64{1}, ge, 0), []float64{1}, true, unbounded)
}

func TestEquality(t *testing.T) {
	// max y  s.t. x + y = 1, y ≤ 0.7, x ≥ 0.
	kernel, ref := solveBoth(t, cons(
		con([]float64{1, 1}, eq, 1),
		con([]float64{0, 1}, le, 0.7),
		con([]float64{1, 0}, ge, 0),
	), []float64{0, 1}, true, optimal(0.7))
	for _, x := range [][]float64{kernel.x, ref.x} {
		if math.Abs(x[0]-0.3) > 1e-7 {
			t.Fatalf("optimizer %v, want x = 0.3", x)
		}
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// Beale's classic degenerate LP; Bland's rule must terminate.
	solveBoth(t, cons(
		con([]float64{0.25, -60, -0.04, 9}, le, 0),
		con([]float64{0.5, -90, -0.02, 3}, le, 0),
		con([]float64{0, 0, 1, 0}, le, 1),
		con([]float64{1, 0, 0, 0}, ge, 0),
		con([]float64{0, 1, 0, 0}, ge, 0),
		con([]float64{0, 0, 1, 0}, ge, 0),
		con([]float64{0, 0, 0, 1}, ge, 0),
	), []float64{-0.75, 150, -0.02, 6}, false, optimal(-0.05))
}

// TestRandomFeasibility cross-checks both solvers against rejection sampling:
// for random small systems, if sampling finds a feasible point neither may
// report an empty set, and any optimum must satisfy all constraints and be
// no worse than the best sample.
func TestRandomFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nv := 1 + rng.Intn(3)
		m := 1 + rng.Intn(6)
		var hs []geom.Halfspace
		for i := 0; i < m; i++ {
			coef := make([]float64, nv)
			for j := range coef {
				coef[j] = rng.NormFloat64()
			}
			r := le
			if rng.Intn(2) == 0 {
				r = ge
			}
			hs = append(hs, con(coef, r, rng.NormFloat64())...)
		}
		// Bound the problem to avoid unbounded outcomes.
		for j := 0; j < nv; j++ {
			unit := make([]float64, nv)
			unit[j] = 1
			hs = append(hs, cons(con(unit, ge, -10), con(unit, le, 10))...)
		}
		obj := make([]float64, nv)
		for j := range obj {
			obj[j] = rng.NormFloat64()
		}
		sampleFeasible := false
		best := math.Inf(-1)
		for s := 0; s < 3000; s++ {
			x := make([]float64, nv)
			for j := range x {
				x[j] = rng.Float64()*20 - 10
			}
			if MinSlack(hs, x) >= 0 {
				sampleFeasible = true
				best = max(best, geom.Halfspace{A: obj}.Eval(x))
			}
		}
		for _, s := range []struct {
			name string
			got  outcome
		}{{"kernel", solveKernel(hs, obj, true)}, {"exact", solveReference(hs, obj, true)}} {
			switch s.got.status {
			case "empty":
				if sampleFeasible {
					t.Fatalf("trial %d: %s says empty but sampling found a point", trial, s.name)
				}
			case "optimal":
				if MinSlack(hs, s.got.x) < -1e-6 {
					t.Fatalf("trial %d: %s optimum violates a constraint", trial, s.name)
				}
				if sampleFeasible && s.got.value < best-1e-6 {
					t.Fatalf("trial %d: %s value %g below sampled %g", trial, s.name, s.got.value, best)
				}
			case "unbounded":
				t.Fatalf("trial %d: %s: unexpected unbounded with box bounds", trial, s.name)
			}
		}
	}
}

// TestMismatchedCoefLength: a half-space longer than the dimension is
// malformed, and neither solver solves something else instead — both panic.
func TestMismatchedCoefLength(t *testing.T) {
	hs := []geom.Halfspace{{A: []float64{1, 1, 1}, B: 0}}
	for name, solve := range map[string]func(){
		"OptimizeLinear": func() { OptimizeLinear(2, hs, []float64{1, 1}, true, nil) },
		"InteriorPoint":  func() { InteriorPoint(2, hs, nil) },
		"exact":          func() { solveExact(2, hs, []float64{1, 1}, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a 3-coefficient half-space in dimension 2", name)
				}
			}()
			solve()
		}()
	}
}
