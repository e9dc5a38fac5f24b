// Package geom provides the geometric primitives used throughout the UTK
// library: scores and dominance over d-dimensional records, the reduced
// (d−1)-dimensional preference domain, half-spaces induced by record pairs,
// and convex regions (boxes and general polytopes) with the classification
// predicates the r-dominance machinery relies on.
//
// Conventions. Records live in the d-dimensional data domain and higher
// attribute values are preferable. Weight vectors live in the reduced
// preference domain: a vector w = (w_1, ..., w_{d−1}) with w_i ≥ 0 and
// Σ w_i ≤ 1 stands for the full vector (w_1, ..., w_{d−1}, 1 − Σ w_i).
// All half-spaces are closed sets of the form {w : A·w ≥ B}.
package geom

import (
	"fmt"
	"math"
)

// Eps is the global numeric tolerance for geometric predicates. Values whose
// magnitude is below Eps are treated as zero.
const Eps = 1e-9

// Score returns the full weighted sum Σ w_i·x_i of record p for a reduced
// weight vector w of length len(p)−1. The implicit last weight is
// 1 − Σ w_i.
func Score(p []float64, w []float64) float64 {
	d := len(p)
	last := p[d-1]
	s := last
	for i, wi := range w {
		s += wi * (p[i] - last)
	}
	return s
}

// ScoreFull returns Σ w_i·x_i for a full d-dimensional weight vector.
func ScoreFull(p, w []float64) float64 {
	var s float64
	for i, wi := range w {
		s += wi * p[i]
	}
	return s
}

// ReduceWeights drops the last coordinate of a full weight vector, returning
// the reduced form used by the preference domain. The caller is responsible
// for the vector summing to one.
func ReduceWeights(full []float64) []float64 {
	w := make([]float64, len(full)-1)
	copy(w, full)
	return w
}

// Dominates reports whether record p dominates record q in the traditional
// sense: p is no smaller than q in every dimension and strictly larger in at
// least one.
func Dominates(p, q []float64) bool {
	strict := false
	for i := range p {
		if p[i] < q[i]-Eps {
			return false
		}
		if p[i] > q[i]+Eps {
			strict = true
		}
	}
	return strict
}

// Halfspace is the closed half-space {w : A·w ≥ B} in the reduced preference
// domain.
type Halfspace struct {
	A []float64
	B float64
}

// Eval returns A·w − B; the point w lies inside the half-space when the
// result is ≥ 0 (up to tolerance).
func (h Halfspace) Eval(w []float64) float64 {
	s := -h.B
	for i, a := range h.A {
		s += a * w[i]
	}
	return s
}

// Contains reports whether w lies inside the closed half-space, with
// tolerance Eps.
func (h Halfspace) Contains(w []float64) bool {
	return h.Eval(w) >= -Eps
}

// Negate returns the complementary closed half-space {w : A·w ≤ B},
// represented as {w : (−A)·w ≥ −B}. The shared boundary hyperplane belongs
// to both; cells built from negations are treated as open up to measure-zero
// boundaries.
func (h Halfspace) Negate() Halfspace {
	a := make([]float64, len(h.A))
	for i, v := range h.A {
		a[i] = -v
	}
	return Halfspace{A: a, B: -h.B}
}

// Clone returns a deep copy of the half-space.
func (h Halfspace) Clone() Halfspace {
	a := make([]float64, len(h.A))
	copy(a, h.A)
	return Halfspace{A: a, B: h.B}
}

// IsTrivial reports whether the half-space has an (effectively) zero normal
// vector. A trivial half-space is either the whole domain (B ≤ 0) or empty
// (B > 0).
func (h Halfspace) IsTrivial() bool {
	for _, a := range h.A {
		if math.Abs(a) > Eps {
			return false
		}
	}
	return true
}

// DualHalfspace maps the ordered record pair (q, p) to the half-space of the
// reduced preference domain where S(q) ≥ S(p). This is the fundamental
// transform of the paper: each competitor q of a candidate p contributes the
// half-space where q outscores p.
func DualHalfspace(q, p []float64) Halfspace {
	d := len(p)
	a := make([]float64, d-1)
	for i := 0; i < d-1; i++ {
		a[i] = (q[i] - q[d-1]) - (p[i] - p[d-1])
	}
	return Halfspace{A: a, B: p[d-1] - q[d-1]}
}

// Side is the result of classifying a convex region against a half-space.
type Side int

const (
	// Inside means the region is entirely contained in the half-space.
	Inside Side = iota
	// Outside means the region is entirely outside the half-space interior
	// (it may touch the boundary hyperplane).
	Outside
	// Straddle means the hyperplane properly cuts the region.
	Straddle
)

func (s Side) String() string {
	switch s {
	case Inside:
		return "inside"
	case Outside:
		return "outside"
	case Straddle:
		return "straddle"
	}
	return fmt.Sprintf("Side(%d)", int(s))
}

// SimplexHalfspaces returns the half-spaces bounding the reduced preference
// domain itself: w_i ≥ 0 for each axis and Σ w_i ≤ 1.
func SimplexHalfspaces(dim int) []Halfspace {
	hs := make([]Halfspace, 0, dim+1)
	for i := 0; i < dim; i++ {
		a := make([]float64, dim)
		a[i] = 1
		hs = append(hs, Halfspace{A: a, B: 0})
	}
	a := make([]float64, dim)
	for i := range a {
		a[i] = -1
	}
	hs = append(hs, Halfspace{A: a, B: -1})
	return hs
}
