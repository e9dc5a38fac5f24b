// Package exact is the reference internal/lp's tests hold the cell kernel
// to: its two LPs — the max-min-slack center of ∩{a_i·x ≥ b_i} and a linear
// objective over it — solved in exact arithmetic on the rows as given, since
// every finite float64 is a rational. There is no tolerance anywhere and
// Bland's rule picks both the entering and the leaving variable, so
// termination and exactness are theorems. Only tests import it (CI checks).
package exact

import (
	"math"
	"math/big"
)

// Center maximizes t subject to a_i·x − ‖a_i‖·t ≥ b_i for every row and
// t ≤ 1 over x of length dim: the minimum slack normalized by each row's norm
// and capped at 1, the quantity lp.InteriorPoint maximizes. The norms are the
// float64 ones and only weight t, so t ≥ 0 exactly when the set is non-empty,
// whatever rounding did to them. A row with norm 0 reads 0 ≥ b_i: it is
// dropped when that holds, and when it does not the set is empty and ok is
// false. A row shorter than dim is zero-padded; a longer one panics.
func Center(dim int, a [][]float64, b []float64) (x []*big.Rat, t *big.Rat, ok bool) {
	// Over (x, t): the rows a_i·x − w_i·t ≥ b_i and the cap −t ≥ −1. The
	// origin satisfies row i for every t ≤ −b_i / w_i, so it starts the walk
	// with t₀ the floor of the least of those and 1.
	var rows [][]float64
	var rhs []float64
	least := big.NewRat(1, 1)
	for i, row := range a {
		if len(row) > dim {
			panic("exact: a row longer than dim")
		}
		norm := 0.0
		for _, v := range row {
			norm += v * v
		}
		if norm == 0 {
			if b[i] > 0 {
				return nil, nil, false
			}
			continue
		}
		r := make([]float64, dim+1)
		copy(r, row)
		r[dim] = -math.Sqrt(norm)
		if s := new(big.Rat).Quo(rat(b[i]), rat(r[dim])); s.Cmp(least) < 0 {
			least = s
		}
		rows, rhs = append(rows, r), append(rhs, b[i])
	}
	capT, obj := make([]float64, dim+1), make([]float64, dim+1)
	capT[dim], obj[dim] = -1, 1
	start := ratRow(nil, dim) // the origin, and t₀ in the last place
	start[dim].SetInt(new(big.Int).Div(least.Num(), least.Denom()))
	y, _, _ := Optimize(append(rows, capT), append(rhs, -1), obj, start) // t ≤ 1: never unbounded
	return y[:dim], y[dim], true
}

// Optimize maximizes c·x subject to a_i·x ≥ b_i for every row, starting from
// start, which must satisfy every row exactly (it panics otherwise, and on a
// row longer than c; a shorter one is zero-padded). bounded is false when c·x
// is unbounded over the set; otherwise x is an optimizer and val the optimum.
func Optimize(a [][]float64, b, c []float64, start []*big.Rat) (x []*big.Rat, val *big.Rat, bounded bool) {
	// Row i over y = x − start: a_i·y + (a_i·start − b_i) ≥ 0, the objective
	// c·y. Each row is scaled to integers by a positive factor (the same
	// constraint on a rescaled slack, the same argmax) to start the
	// fraction-free dictionary.
	dim, m := len(c), len(a)
	d := &dict{m: m, nv: dim, a: make([][]*big.Int, m+1), den: big.NewInt(1), basic: make([]int, m), nonbasic: make([]int, dim)}
	for i, coef := range a {
		row := ratRow(coef, dim)
		for j := range coef {
			row[dim].Add(row[dim], new(big.Rat).Mul(row[j], start[j]))
		}
		if row[dim].Sub(row[dim], rat(b[i])); row[dim].Sign() < 0 {
			panic("exact: the start violates a row")
		}
		d.a[i], d.basic[i] = integerRow(row), dim+i
	}
	d.a[m] = integerRow(ratRow(c, dim))
	for j := range d.nonbasic {
		d.nonbasic[j] = j
	}
	if !d.maximize() {
		return nil, nil, false
	}
	// A basic free variable is its row's constant, a nonbasic one 0.
	x, val = make([]*big.Rat, dim), new(big.Rat)
	for j := range x {
		x[j] = new(big.Rat).Set(start[j])
	}
	for i, v := range d.basic {
		if v < dim {
			x[v].Add(x[v], new(big.Rat).SetFrac(d.a[i][dim], d.den))
		}
	}
	for j := range x {
		val.Add(val, new(big.Rat).Mul(rat(c[j]), x[j]))
	}
	return x, val, true
}

func rat(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }

// ratRow is coef zero-padded to n entries, then a zero constant.
func ratRow(coef []float64, n int) []*big.Rat {
	row := make([]*big.Rat, n+1)
	for j := range row {
		row[j] = new(big.Rat)
	}
	for j, v := range coef {
		row[j].SetFloat64(v)
	}
	return row
}

// integerRow multiplies a row of rationals by the lcm of their denominators.
func integerRow(row []*big.Rat) []*big.Int {
	l := big.NewInt(1)
	var g, q big.Int
	for _, v := range row {
		g.GCD(nil, nil, l, v.Denom())
		l.Mul(l, q.Quo(v.Denom(), &g))
	}
	out := make([]*big.Int, len(row))
	for j, v := range row {
		out[j] = new(big.Int).Mul(v.Num(), q.Quo(l, v.Denom()))
	}
	return out
}

// dict is a simplex dictionary kept fraction-free: row i reads
//
//	basic[i] = (a[i][nv] + Σ_j a[i][j] · nonbasic[j]) / den
//
// with integer entries and den ≠ 0, and row m is the objective, maximized.
// Variables 0..nv−1 are free; nv+i is the slack of row i and must stay ≥ 0.
// A pivot updates the entries by Bareiss's rule, whose division is exact, so
// no step takes a gcd and the entries stay minors of the starting matrix.
type dict struct {
	m, nv           int
	a               [][]*big.Int
	den             *big.Int
	basic, nonbasic []int
}

// maximize pivots to an optimum (true) or finds the objective unbounded
// (false). A free variable is never split: nonbasic, it may enter either way;
// basic, it has no bound and never leaves. Bland's rule picks the entering
// variable (the lowest-numbered improving one) and the leaving one (the
// lowest-numbered among the minimum ratios); after the last free variable
// enters, the walk is Bland's simplex on the slacks, which cannot cycle.
func (d *dict) maximize() bool {
	var lhs, rhs big.Int
	for {
		cost, sign := d.a[d.m], d.den.Sign() // an entry's sign is its own times sign
		enter, dir := -1, 0
		for j, v := range d.nonbasic {
			s := cost[j].Sign() * sign
			if s == 0 || (s < 0 && v >= d.nv) {
				continue
			}
			if enter < 0 || v < d.nonbasic[enter] {
				enter, dir = j, s
			}
		}
		if enter < 0 {
			return true
		}
		// Row i limits the move to |a[i][nv] / a[i][enter]| (constants are
		// ≥ 0 in value); ratios compare by cross-multiplying.
		leave := -1
		for i, v := range d.basic {
			if v < d.nv || d.a[i][enter].Sign()*sign*dir >= 0 {
				continue // free, or not eaten into by the move
			}
			if leave >= 0 {
				lhs.Mul(d.a[i][d.nv], d.a[leave][enter])
				rhs.Mul(d.a[leave][d.nv], d.a[i][enter])
				if c := lhs.CmpAbs(&rhs); c > 0 || (c == 0 && v > d.basic[leave]) {
					continue
				}
			}
			leave = i
		}
		if leave < 0 {
			return false
		}
		d.pivot(leave, enter)
	}
}

// pivot exchanges the basic variable of row r with the nonbasic variable of
// column e.
func (d *dict) pivot(r, e int) {
	pr := d.a[r]
	p := new(big.Int).Set(pr[e])
	var prod, rem big.Int
	for i, ri := range d.a {
		if i == r {
			continue
		}
		for j, v := range ri {
			if j == e || (v.Sign() == 0 && (ri[e].Sign() == 0 || pr[j].Sign() == 0)) {
				continue // the pivot column, or a zero that stays zero
			}
			v.Mul(v, p)
			v.Sub(v, prod.Mul(ri[e], pr[j]))
			if v.QuoRem(v, d.den, &rem); rem.Sign() != 0 {
				panic("exact: inexact Bareiss division")
			}
		}
	}
	for j, v := range pr {
		if j != e {
			v.Neg(v)
		}
	}
	pr[e].Set(d.den)
	d.den = p
	d.basic[r], d.nonbasic[e] = d.nonbasic[e], d.basic[r]
}
