package lp

import (
	"math"

	"repro/internal/geom"
)

// SlackEps is the minimum normalized interior slack for a half-space
// intersection to count as full-dimensional. Cells thinner than this are
// treated as measure-zero boundaries and discarded, which keeps arrangement
// cells open, disjoint, and exhaustive up to boundaries.
const SlackEps = 1e-7

// InteriorPoint computes a point of ∩{A_i·w ≥ B_i} that maximizes the
// minimum slack, normalized by each half-space's L2 norm and capped at 1 (a
// Chebyshev-style center). It returns the point, the achieved normalized
// slack, and whether the intersection is full-dimensional (slack >
// SlackEps). Callers must supply enough half-spaces to bound the region
// (arrangement cells always include the query region's bounds).
//
// start is any point the caller holds, or nil for the origin; it need not be
// feasible. The LP runs over (w, t) from (start, t₀) with t₀ the start's own
// minimum normalized slack, which is feasible by construction — so a point
// near the optimum (a parent cell's interior, a witness) saves pivots and a
// bad one costs nothing but them.
func InteriorPoint(dim int, hs []geom.Halfspace, start []float64) (pt []float64, slack float64, ok bool) {
	return (*Workspace)(nil).InteriorPoint(dim, hs, start)
}

// InteriorPoint is the package-level InteriorPoint using the workspace's
// backing memory for the dictionary.
func (ws *Workspace) InteriorPoint(dim int, hs []geom.Halfspace, start []float64) (pt []float64, slack float64, ok bool) {
	pt, slack, ok = ws.center(dim, hs, start)
	if !ok || slack <= SlackEps {
		return nil, slack, false
	}
	return pt, slack, true
}

// center is InteriorPoint without the full-dimensionality verdict: ok is
// false only when a trivially false half-space empties the set outright.
func (ws *Workspace) center(dim int, hs []geom.Halfspace, start []float64) (pt []float64, slack float64, ok bool) {
	x := make([]float64, dim+1)
	copy(x, start)
	// With every half-space scaled to unit norm, the rows are
	// Â_i·y − τ + (slack_i(start) − t₀) ≥ 0 in the shifts y = w − start,
	// τ = t − t₀, plus the cap 1 − t₀ − τ ≥ 0; maximize τ.
	d := ws.dict(len(hs)+1, dim+1)
	t0 := 1.0
	m := 0
	for _, h := range hs {
		norm := l2(h.A)
		if norm < geom.Eps {
			if h.B > geom.Eps {
				return nil, 0, false // empty half-space ⇒ empty cell
			}
			continue // trivially true half-space
		}
		r := d.row(m)
		for j, a := range h.A {
			r[j] = a / norm
		}
		r[dim] = -1
		r[dim+1] = h.Eval(x[:dim]) / norm
		t0 = min(t0, r[dim+1])
		m++
	}
	for i := 0; i < m; i++ {
		d.row(i)[dim+1] -= t0
	}
	capT := d.row(m)
	capT[dim], capT[dim+1] = -1, 1-t0
	d.m = m + 1
	d.row(d.m)[dim] = 1
	d.maximize() // τ ≤ 1 − t₀: never unbounded
	d.addShifts(x)
	// The slack reported is the one the point has, not the one the dictionary
	// arrived at: a verdict built on it holds whatever rounding did on the way.
	return x[:dim:dim], min(MinSlack(hs, x[:dim]), 1), true
}

// OptimizeLinear maximizes (or minimizes) obj·w over ∩{A_i·w ≥ B_i}; ok is
// false when the set is empty or the objective unbounded over it.
//
// start is a feasible point the caller holds (a cell's interior, a witness),
// from which the simplex runs with no phase 1. A nil start, or one that
// violates some half-space by more than the solver tolerance (normalized),
// is never used as given: the solver finds its own by maximizing the
// minimum slack from it.
func OptimizeLinear(dim int, hs []geom.Halfspace, obj []float64, maximize bool, start []float64) (pt []float64, val float64, ok bool) {
	return (*Workspace)(nil).OptimizeLinear(dim, hs, obj, maximize, start)
}

// OptimizeLinear is the package-level OptimizeLinear using the workspace's
// backing memory for the dictionary.
func (ws *Workspace) OptimizeLinear(dim int, hs []geom.Halfspace, obj []float64, maximize bool, start []float64) (pt []float64, val float64, ok bool) {
	if start == nil || MinSlack(hs, start) < -tol {
		var slack float64
		if start, slack, ok = ws.center(dim, hs, start); !ok || slack < -tol {
			return nil, 0, false
		}
	}
	// Rows are scaled to unit norm, so the dictionary's constants are
	// distances and the solver tolerance means the same on every row.
	d := ws.dict(len(hs), dim)
	m := 0
	for _, h := range hs {
		norm := l2(h.A)
		if norm < geom.Eps {
			continue // trivially true; a trivially false one never gets a start
		}
		r := d.row(m)
		for j, a := range h.A {
			r[j] = a / norm
		}
		r[dim] = h.Eval(start) / norm
		m++
	}
	d.m = m
	cost := d.row(m)
	for j, c := range obj {
		if maximize {
			cost[j] = c
		} else {
			cost[j] = -c
		}
	}
	if !d.maximize() {
		return nil, 0, false
	}
	pt = append([]float64(nil), start...)
	d.addShifts(pt)
	for j, c := range obj {
		val += c * pt[j]
	}
	return pt, val, true
}

// MinSlack returns the smallest normalized slack of pt over the half-spaces:
// how far inside ∩{A_i·w ≥ B_i} the point sits (negative: how far outside).
// Trivially true half-spaces have no say (+Inf when nothing else has), a
// trivially false one makes every point infinitely far outside.
func MinSlack(hs []geom.Halfspace, pt []float64) float64 {
	mn := math.Inf(1)
	for _, h := range hs {
		if norm := l2(h.A); norm >= geom.Eps {
			mn = min(mn, h.Eval(pt)/norm)
		} else if h.B > geom.Eps {
			return math.Inf(-1)
		}
	}
	return mn
}

func l2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
