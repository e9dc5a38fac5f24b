// Package lp holds the two linear-programming kernels the UTK algorithms use.
//
// Cell LPs — interior points of arrangement cells, extremes of a linear
// functional over a cell, the drill vector — run on a condensed
// (dictionary-form) simplex that starts from a point the caller already
// holds: m slack rows × (dim+1) columns over the shift from that point, free
// variables unsplit, no phase 1 (cell.go, polytope.go). The scale regime is
// tiny dimensions (≤ ~8 variables) and tens of constraints, solved hundreds
// of times per query.
//
// Maximize, Minimize and MaximizeNonneg are a dense two-phase tableau simplex
// over general LE/GE/EQ constraints, for the onion-layer membership test and
// as the reference the cell kernel is fuzzed against. Free variables are
// split into a difference of two non-negative ones there.
//
// Both terminate on degenerate problems: the tableau by Bland's rule, the cell
// kernel by Bland's entering rule with Harris's ratio test, which hands the
// leaving choice to Bland too once a degenerate vertex stalls the walk.
package lp

import (
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

const (
	// LE is a·x ≤ b.
	LE Rel = iota
	// GE is a·x ≥ b.
	GE
	// EQ is a·x = b.
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Constraint is a single linear constraint Coef·x Rel RHS.
type Constraint struct {
	Coef []float64
	Rel  Rel
	RHS  float64
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set has no solution.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible set.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve: the optimizer X (one value per original
// free variable), the objective value, and the status. X and Value are only
// meaningful when Status == Optimal.
type Solution struct {
	X      []float64
	Value  float64
	Status Status
}

const tol = 1e-9

// Maximize solves max obj·x subject to cons over free variables.
func Maximize(obj []float64, cons []Constraint) Solution {
	return solve(obj, cons, true, false)
}

// Minimize solves min obj·x subject to cons over free variables.
func Minimize(obj []float64, cons []Constraint) Solution {
	return solve(obj, cons, false, false)
}

// MaximizeNonneg solves max obj·x subject to cons with every variable
// constrained to x ≥ 0 implicitly (no explicit non-negativity rows and no
// free-variable split). Use it for problems with many variables and few
// constraints, such as the convex-combination dominance test of the onion
// layers, where the row count determines the tableau cost.
func MaximizeNonneg(obj []float64, cons []Constraint) Solution {
	return solve(obj, cons, true, true)
}

func solve(obj []float64, cons []Constraint, maximize, nonneg bool) Solution {
	nv := len(obj)
	m := len(cons)
	// Column layout: [u_0..u_{nv-1} | v_0..v_{nv-1} | slacks | artificials | rhs]
	// where x_j = u_j − v_j. In nonneg mode the v block is omitted and
	// x_j = u_j directly.
	vBlock := nv
	if nonneg {
		vBlock = 0
	}
	nSlack := 0
	for _, c := range cons {
		if c.Rel != EQ {
			nSlack++
		}
	}
	nCols := nv + vBlock + nSlack + m // + artificials (one per row)
	artStart := nv + vBlock + nSlack
	t := &tableau{m: m, n: nCols, a: make([][]float64, m+1), basis: make([]int, m)}
	for i := range t.a {
		t.a[i] = make([]float64, nCols+1)
	}
	slackIdx := 0
	for i, c := range cons {
		if len(c.Coef) != nv {
			return Solution{Status: Infeasible}
		}
		row := t.a[i]
		for j, v := range c.Coef {
			row[j] = v
			if !nonneg {
				row[nv+j] = -v
			}
		}
		switch c.Rel {
		case LE:
			row[nv+vBlock+slackIdx] = 1
			slackIdx++
		case GE:
			row[nv+vBlock+slackIdx] = -1
			slackIdx++
		}
		row[nCols] = c.RHS
		if row[nCols] < 0 {
			for j := 0; j <= nCols; j++ {
				row[j] = -row[j]
			}
		}
		row[artStart+i] = 1
		t.basis[i] = artStart + i
	}

	// Phase 1: minimize the sum of artificials. The cost row starts with
	// coefficient 1 on each artificial and is canonicalized by subtracting
	// every (artificial-basic) row.
	cost := t.a[m]
	for j := artStart; j < artStart+m; j++ {
		cost[j] = 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j <= nCols; j++ {
			cost[j] -= t.a[i][j]
		}
	}
	if st := t.pivotLoop(nCols); st == Unbounded {
		// Phase 1 is never unbounded (objective bounded below by 0); treat
		// defensively as infeasible.
		return Solution{Status: Infeasible}
	}
	if -cost[nCols] > 1e-7 {
		return Solution{Status: Infeasible}
	}
	// Drive remaining artificials out of the basis where possible.
	for i := 0; i < m; i++ {
		if t.basis[i] < artStart {
			continue
		}
		pivoted := false
		for j := 0; j < artStart; j++ {
			if math.Abs(t.a[i][j]) > tol {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it so it can never constrain phase 2.
			for j := 0; j <= nCols; j++ {
				t.a[i][j] = 0
			}
		}
	}

	// Phase 2: install the real objective (always minimized internally).
	for j := 0; j <= nCols; j++ {
		cost[j] = 0
	}
	sign := 1.0
	if maximize {
		sign = -1.0
	}
	for j := 0; j < nv; j++ {
		cost[j] = sign * obj[j]
		if !nonneg {
			cost[nv+j] = -sign * obj[j]
		}
	}
	for i := 0; i < m; i++ {
		b := t.basis[i]
		if b <= nCols && math.Abs(cost[b]) > 0 {
			f := cost[b]
			for j := 0; j <= nCols; j++ {
				cost[j] -= f * t.a[i][j]
			}
		}
	}
	if st := t.pivotLoop(artStart); st == Unbounded {
		return Solution{Status: Unbounded}
	}

	x := make([]float64, nv)
	for i := 0; i < m; i++ {
		b := t.basis[i]
		val := t.a[i][nCols]
		switch {
		case b < nv:
			x[b] += val
		case b < nv+vBlock:
			x[b-nv] -= val
		}
	}
	value := 0.0
	for j := range obj {
		value += obj[j] * x[j]
	}
	return Solution{X: x, Value: value, Status: Optimal}
}

type tableau struct {
	m, n  int
	a     [][]float64 // (m+1) × (n+1); row m is the cost row, column n the RHS
	basis []int
}

// pivotLoop runs Bland-rule simplex iterations, considering entering columns
// only in [0, colLimit).
func (t *tableau) pivotLoop(colLimit int) Status {
	cost := t.a[t.m]
	for {
		enter := -1
		for j := 0; j < colLimit; j++ {
			if cost[j] < -tol {
				enter = j
				break
			}
		}
		if enter < 0 {
			return Optimal
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij <= tol {
				continue
			}
			ratio := t.a[i][t.n] / aij
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && (leave < 0 || t.basis[i] < t.basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

func (t *tableau) pivot(row, col int) {
	a := t.a
	pv := a[row][col]
	inv := 1 / pv
	for j := 0; j <= t.n; j++ {
		a[row][j] *= inv
	}
	a[row][col] = 1 // avoid drift
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		f := a[i][col]
		if f == 0 {
			continue
		}
		ri := a[i]
		rr := a[row]
		for j := 0; j <= t.n; j++ {
			ri[j] -= f * rr[j]
		}
		ri[col] = 0
	}
	if row < t.m {
		t.basis[row] = col
	}
}
