package lp

import "math"

// dict is the condensed (dictionary-form) simplex state of one cell LP over
// the shifted variables y = x − start. Row i reads
//
//	basic[i] = a[i·w+nv] + Σ_j a[i·w+j] · nonbasic[j]      (w = nv+1)
//
// and row m is the objective, maximized. Variables 0..nv−1 are the free y's;
// nv+i is the slack of constraint row i, which must stay ≥ 0. The start is
// feasible, so the initial dictionary (every slack basic, every y nonbasic at
// 0) is too and there is no phase 1; there are no slack or artificial
// columns, so a pivot costs Θ(m·nv) whatever m is.
type dict struct {
	m, nv           int
	a               []float64 // (m+1) × (nv+1), row-major
	basic, nonbasic []int
}

// row returns row i of the dictionary (nv coefficients, then the constant).
func (d *dict) row(i int) []float64 {
	w := d.nv + 1
	return d.a[i*w : (i+1)*w : (i+1)*w]
}

// maximize runs simplex iterations from the current feasible dictionary and
// reports whether they end at an optimum (false: the objective is
// unbounded). A free variable is unsplit: while nonbasic it may enter in
// either direction, and once basic it has no bound to hit, so it never
// leaves. The entering
// variable is Bland's, the lowest-numbered improving one. Each of the nv free
// variables enters at most once, and between two such entries Bland's rule —
// for the leaving row too once a degenerate vertex stalls the walk — rules
// out cycling on the slacks.
func (d *dict) maximize() bool {
	nv, m, w := d.nv, d.m, d.nv+1
	cost := d.row(m)
	stall := 0 // zero-length pivots in a row
	for {
		enter, dir := -1, 0.0
		for j, v := range d.nonbasic {
			up := cost[j] > tol
			if !up && !(v < nv && cost[j] < -tol) {
				continue
			}
			if enter < 0 || v < d.nonbasic[enter] {
				enter, dir = j, 1
				if !up {
					dir = -1
				}
			}
		}
		if enter < 0 {
			return true
		}
		// Ratio test over the slack rows the move eats into, in Harris's two
		// passes: the longest step that leaves every slack ≥ −tol bounds the
		// candidates, and among them the largest pivot element leaves. The row
		// the exact minimum ratio names can have a pivot element of 1e-9 when
		// rows are nearly parallel, and dividing by it wrecks the dictionary.
		// A slack the tolerance let slip below 0 counts as 0 when its row
		// leaves, so a step is never negative. After more zero-length pivots
		// in a row than there are variables, the exact minimum ratio and
		// Bland's lowest-numbered slack take over until the walk moves again:
		// that pair cannot cycle.
		limit := math.Inf(1)
		for i, v := range d.basic[:m] {
			if g := -dir * d.a[i*w+enter]; v >= nv && g > tol {
				limit = min(limit, (d.a[i*w+nv]+tol)/g)
			}
		}
		if math.IsInf(limit, 1) {
			return false
		}
		bland := stall > nv
		leave := -1
		step, pivot := 0.0, 0.0
		for i, v := range d.basic[:m] {
			g := -dir * d.a[i*w+enter] // rate at which the move eats this slack
			if v < nv || g <= tol {
				continue
			}
			ratio := d.a[i*w+nv] / g
			if ratio > limit {
				continue
			}
			ratio = max(ratio, 0)
			var better bool
			switch {
			case leave < 0:
				better = true
			case bland:
				better = ratio < step || (ratio == step && v < d.basic[leave])
			default:
				better = g > pivot || (g == pivot && v < d.basic[leave])
			}
			if better {
				step, pivot, leave = ratio, g, i
			}
		}
		if stall++; step > 0 {
			stall = 0
		}
		d.a[leave*w+nv] = max(d.a[leave*w+nv], 0)
		d.pivot(leave, enter)
	}
}

// pivot exchanges the basic variable of row r with the nonbasic variable of
// column e.
func (d *dict) pivot(r, e int) {
	pr := d.row(r)
	inv := 1 / pr[e]
	for j := range pr {
		pr[j] *= -inv
	}
	pr[e] = inv
	for i := 0; i <= d.m; i++ {
		if i == r {
			continue
		}
		ri := d.row(i)
		f := ri[e]
		if f == 0 {
			continue
		}
		ri[e] = 0
		for j, v := range pr {
			ri[j] += f * v
		}
	}
	d.basic[r], d.nonbasic[e] = d.nonbasic[e], d.basic[r]
}

// addShifts adds the free variables' values at the current vertex to x (a
// nonbasic free variable sits at 0), turning the start into the solution.
func (d *dict) addShifts(x []float64) {
	w := d.nv + 1
	for i, v := range d.basic[:d.m] {
		if v < d.nv {
			x[v] += d.a[i*w+d.nv]
		}
	}
}
