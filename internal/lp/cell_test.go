package lp

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// refOptimize is OptimizeLinear on the two-phase tableau: the pre-kernel
// implementation, kept as the reference.
func refOptimize(hs []geom.Halfspace, obj []float64, maximize bool) Solution {
	cons := make([]Constraint, 0, len(hs))
	for _, h := range hs {
		if l2(h.A) < geom.Eps {
			if h.B > geom.Eps {
				return Solution{Status: Infeasible}
			}
			continue
		}
		cons = append(cons, Constraint{Coef: h.A, Rel: GE, RHS: h.B})
	}
	return solve(obj, cons, maximize, false)
}

// refCenter is the max-min-normalized-slack LP on the two-phase tableau:
// variables (w, t), maximize t subject to A_i·w − ‖A_i‖·t ≥ B_i and t ≤ 1.
// empty reports a trivially false half-space.
func refCenter(t *testing.T, dim int, hs []geom.Halfspace) (pt []float64, slack float64, empty bool) {
	t.Helper()
	var cons []Constraint
	for _, h := range hs {
		norm := l2(h.A)
		if norm < geom.Eps {
			if h.B > geom.Eps {
				return nil, 0, true
			}
			continue
		}
		coef := append(append([]float64(nil), h.A...), -norm)
		cons = append(cons, Constraint{Coef: coef, Rel: GE, RHS: h.B})
	}
	capT := make([]float64, dim+1)
	capT[dim] = 1
	cons = append(cons, Constraint{Coef: capT, Rel: LE, RHS: 1})
	sol := Maximize(capT, cons)
	if sol.Status != Optimal {
		t.Skipf("two-phase reference reports the always feasible, bounded center LP as %v", sol.Status)
	}
	return sol.X[:dim:dim], sol.X[dim], false
}

// cellCase is one decoded fuzz input: a polytope, an objective and the start
// points to try.
type cellCase struct {
	dim      int
	hs       []geom.Halfspace
	obj      []float64
	maximize bool
	far      []float64 // a point outside by far more than tol (unless the set is everything)
}

// decodeCell maps arbitrary bytes onto a small polytope. Coefficients and
// offsets are coarse multiples of 1/4 and 1/16, so duplicate and parallel
// rows, ties in the ratio test and many facets through one vertex arise from
// plain byte mutations; the flag and tilt bytes add the adversarial shapes
// outright.
func decodeCell(data []byte) cellCase {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	quarter := func() float64 { return float64(next()%9-4) / 4 } // −1 … 1
	dim := 1 + next()%7
	m := next() % 48
	flags := next()
	objKind := next()
	tilt := next()
	center := make([]float64, dim)
	for j := range center {
		center[j] = float64(int8(next())) / 64 // −2 … 2
	}
	var hs []geom.Halfspace
	add := func(a []float64, slackAtCenter float64) {
		b := -slackAtCenter
		for j := range a {
			b += a[j] * center[j]
		}
		hs = append(hs, geom.Halfspace{A: a, B: b})
	}
	for i := 0; i < m; i++ {
		a := make([]float64, dim)
		for j := range a {
			a[j] = quarter()
		}
		add(a, float64(next()%9-2)/16) // −1/8 … 3/8; negative cuts the center off
	}
	if flags&1 == 0 { // bounding box of half-width 1 around the center
		for j := 0; j < dim; j++ {
			if flags&2 != 0 && j == 0 {
				continue // one axis left open: an unbounded direction
			}
			lo, hi := make([]float64, dim), make([]float64, dim)
			lo[j], hi[j] = 1, -1
			add(lo, 1)
			add(hi, 1)
		}
	}
	if flags&4 != 0 { // duplicate rows
		for i := 0; i < len(hs) && i < 4; i++ {
			hs = append(hs, hs[i].Clone())
		}
	}
	if flags&8 != 0 { // complementary pair: a zero-width slab
		a := make([]float64, dim)
		a[0] = 1
		if len(hs) > 0 {
			a = append([]float64(nil), hs[0].A...)
		}
		h := geom.Halfspace{A: a, B: geom.Halfspace{A: a}.Eval(center)}
		hs = append(hs, h, h.Negate())
	}
	if flags&16 != 0 { // trivial half-spaces
		hs = append(hs, geom.Halfspace{A: make([]float64, dim), B: -1})
		if flags&32 != 0 {
			hs = append(hs, geom.Halfspace{A: make([]float64, dim), B: 1})
		}
	}
	if tilt&1 != 0 && flags&(1|2|8) == 0 {
		// Nearly parallel: every third row tilted by 2⁻⁷ … 2⁻¹⁰. Not finer, not
		// on a set left unbounded (nearly parallel rows meet far out) and not
		// on a slab (a tilt turns it into a wedge of that angle): forty rows
		// within 1e-4 of parallel make dictionaries with entries at 1e8, and
		// float64 has no 1e-9 left to promise feasibility or agreement with.
		for i := 0; i < len(hs); i += 3 {
			if h := hs[i].Clone(); l2(h.A) > 0 {
				h.A[i%dim] += math.Ldexp(float64(i%5-2), -7-tilt>>6)
				hs[i] = h
			}
		}
	}
	if flags&128 != 0 { // rows on different scales (exact powers of two)
		for i := range hs {
			s := math.Ldexp(1, i%7-3)
			h := hs[i].Clone()
			for j := range h.A {
				h.A[j] *= s
			}
			h.B *= s
			hs[i] = h
		}
	}
	if len(hs) > 64 {
		hs = hs[:64]
	}
	obj := make([]float64, dim)
	for j := range obj {
		obj[j] = quarter()
	}
	if flags&64 != 0 && len(hs) > 0 { // objective parallel to a facet
		copy(obj, hs[objKind%len(hs)].A)
	}
	far := make([]float64, dim)
	for j := range far {
		far[j] = center[j] + 3 + float64(next()%5)
	}
	return cellCase{dim: dim, hs: hs, obj: obj, maximize: objKind&1 == 0, far: far}
}

// checkCell solves one case with the cell kernel from every kind of start and
// with the two-phase reference. The kernel's answers certify themselves — the
// slack reported is the slack the point has, an optimizer is checked against
// every half-space — so the checks are: the certificate holds; every start
// reaches the same optimum (it is unique, whatever the walk to it); and the
// kernel is never worse than the reference, nor different from it in verdict.
// Where the kernel is better — on nearly parallel rows the reference stops
// early or returns a t its point does not have — its certificate is the
// proof, and only the reference's own point is held against it.
func checkCell(t *testing.T, c cellCase) {
	t.Helper()
	refPt, refSlack, empty := refCenter(t, c.dim, c.hs)
	if !empty {
		refSlack = min(MinSlack(c.hs, refPt), 1) // what the reference's point achieves
	}
	ref := refOptimize(c.hs, c.obj, c.maximize)
	refOptimal := ref.Status == Optimal && MinSlack(c.hs, ref.X) >= -tol
	// A set infeasible by a hair is judged by tolerances the two solvers apply
	// to different quantities (raw phase-1 sum there, normalized slack here);
	// only a set with a point inside within rounding must be found feasible.
	feasible := !empty && refSlack > -1e-10

	starts := [][]float64{nil, c.far}
	if !empty {
		starts = append(starts, refPt) // interior when there is one, else the least-violating point
	}
	if ref.Status == Optimal {
		starts = append(starts, ref.X) // on a vertex: every pivot out of it is degenerate-prone
		if opp := refOptimize(c.hs, c.obj, !c.maximize); opp.Status == Optimal {
			starts = append(starts, opp.X) // the opposite vertex: the longest walk
		}
	}
	// Answers agree within 1e-7 at the scale of the coordinates they were
	// computed from: a set left unbounded lets a walk pass through points at
	// 1e9, and no solver in float64 keeps absolute 1e-7 there.
	margin := func(b float64, pts ...[]float64) float64 {
		scale := 1 + math.Abs(b)
		for _, pt := range pts {
			for _, v := range pt {
				scale = max(scale, math.Abs(v))
			}
		}
		return 1e-7 * scale
	}
	sign := 1.0
	if !c.maximize {
		sign = -1
	}
	ws := new(Workspace)
	var slack0, val0 float64
	var in0, pt0 []float64
	var ok0 bool
	for si, start := range starts {
		in, slack, full := ws.InteriorPoint(c.dim, c.hs, start)
		in2, slack2, full2 := InteriorPoint(c.dim, c.hs, start)
		if full != full2 || slack != slack2 || !sameBits(in, in2) {
			t.Fatalf("start %d: workspace and allocating InteriorPoint differ: %v %g %v vs %v %g %v", si, in, slack, full, in2, slack2, full2)
		}
		if full != (slack > SlackEps) || (full && MinSlack(c.hs, in) < slack) {
			t.Fatalf("start %d: full-dimensional = %v at reported slack %g, point has %g", si, full, slack, MinSlack(c.hs, in))
		}
		if empty {
			if full {
				t.Fatalf("start %d: interior point of a set with a trivially false half-space", si)
			}
		} else {
			in, _, _ = ws.center(c.dim, c.hs, start) // the point, full-dimensional or not
			if si == 0 {
				slack0, in0 = slack, in
			} else if math.Abs(slack-slack0) > margin(slack0, in, in0) {
				t.Fatalf("start %d: Chebyshev slack %g, from start 0 %g", si, slack, slack0)
			}
			if slack < refSlack-margin(refSlack, in, refPt) {
				t.Fatalf("start %d: Chebyshev slack %g, the reference's point has %g", si, slack, refSlack)
			}
		}

		pt, val, ok := ws.OptimizeLinear(c.dim, c.hs, c.obj, c.maximize, start)
		pt2, val2, ok2 := OptimizeLinear(c.dim, c.hs, c.obj, c.maximize, start)
		if ok != ok2 || val != val2 || !sameBits(pt, pt2) {
			t.Fatalf("start %d: workspace and allocating OptimizeLinear differ", si)
		}
		if ok && MinSlack(c.hs, pt) < -2*tol {
			t.Fatalf("start %d: optimizer violates a half-space by %g (normalized)", si, -MinSlack(c.hs, pt))
		}
		if si == 0 {
			val0, pt0, ok0 = val, pt, ok
		} else if ok != ok0 || math.Abs(val-val0) > margin(val0, pt, pt0) {
			if feasible || refSlack < -1e-5 { // else the set is empty or not by a hair, and a start may tip it
				t.Fatalf("start %d: optimum %g (ok=%v), from start 0 %g (ok=%v)", si, val, ok, val0, ok0)
			}
		}
		switch {
		case empty:
			if ok {
				t.Fatalf("start %d: optimum %g over a set with a trivially false half-space", si, val)
			}
		case feasible && refOptimal:
			if !ok {
				t.Fatalf("start %d: no optimum, reference found %g", si, ref.Value)
			}
			if sign*val < sign*ref.Value-margin(ref.Value, pt, ref.X) {
				t.Fatalf("start %d: optimum %g, reference found %g", si, val, ref.Value)
			}
		case feasible && ref.Status == Unbounded:
			if ok {
				t.Fatalf("start %d: optimum %g, reference says unbounded", si, val)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzCellLP: the condensed cell kernel against the two-phase tableau on
// random and adversarial polytopes — verdict (optimal / infeasible /
// unbounded), optimal value, Chebyshev slack and full-dimensionality — from a
// nil start, a start far outside, an interior start and starts on vertices.
func FuzzCellLP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 0, 0, 0, 10, 20, 1, 5, 2, 7, 3, 0, 4, 8, 5, 1, 6, 3, 7, 2, 8, 6})
	f.Add([]byte{6, 40, 4 | 8 | 64, 3, 0x71, 200, 100, 50, 25, 12, 6, 3})
	f.Add([]byte{3, 12, 1, 1, 0, 0, 0, 0, 0, 8, 8, 8, 2, 0, 0, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCell(t, decodeCell(data))
	})
}

// TestCellKernelDegenerate drives the kernel through starts and shapes where
// every first pivot is degenerate; Bland's rule must terminate on each and
// reach the known optimum.
func TestCellKernelDegenerate(t *testing.T) {
	axis := func(dim, j int, sign, b float64) geom.Halfspace {
		a := make([]float64, dim)
		a[j] = sign
		return geom.Halfspace{A: a, B: b}
	}
	// Beale's cycling example (TestDegenerateNoCycle), as a cell: the origin
	// is a vertex with six of the seven facets through it.
	beale := []geom.Halfspace{
		{A: []float64{-0.25, 60, 0.04, -9}, B: 0},
		{A: []float64{-0.5, 90, 0.02, -3}, B: 0},
		axis(4, 2, -1, -1),
		axis(4, 0, 1, 0), axis(4, 1, 1, 0), axis(4, 2, 1, 0), axis(4, 3, 1, 0),
	}
	// A pyramid whose apex carries eight facets in dimension 3.
	var pyramid []geom.Halfspace
	for i := 0; i < 8; i++ {
		th := float64(i) * math.Pi / 4
		pyramid = append(pyramid, geom.Halfspace{A: []float64{math.Cos(th), math.Sin(th), -1}, B: -1})
	}
	pyramid = append(pyramid, axis(3, 2, 1, 0))
	point := []geom.Halfspace{axis(2, 0, -1, 0), axis(2, 1, -1, 0), axis(2, 0, 1, 0), axis(2, 1, 1, 0)}
	slab := append(boxHalfspaces([]float64{0, 0}, []float64{1, 1}),
		geom.Halfspace{A: []float64{1, 1}, B: 1}, geom.Halfspace{A: []float64{-1, -1}, B: -1})

	cases := []struct {
		name     string
		hs       []geom.Halfspace
		obj      []float64
		maximize bool
		start    []float64
		want     float64
	}{
		{"beale from its degenerate vertex", beale, []float64{-0.75, 150, -0.02, 6}, false, []float64{0, 0, 0, 0}, -0.05},
		{"beale from nil", beale, []float64{-0.75, 150, -0.02, 6}, false, nil, -0.05},
		{"pyramid up from the apex", pyramid, []float64{0, 0, 1}, true, []float64{0, 0, 1}, 1},
		{"pyramid down from the apex", pyramid, []float64{0.3, 0.1, 1}, false, []float64{0, 0, 1}, math.NaN()}, // no closed form worth writing down: the reference supplies it
		{"single point", point, []float64{1, 1}, true, []float64{0, 0}, 0},
		{"single point from outside", point, []float64{1, 1}, true, []float64{3, -2}, 0},
		{"zero-width slab along it", slab, []float64{1, -1}, true, []float64{0.5, 0.5}, 1},
		{"zero-width slab across it", slab, []float64{1, 1}, true, []float64{1, 0}, 1},
	}
	for _, c := range cases {
		want := c.want
		if math.IsNaN(want) {
			want = refOptimize(c.hs, c.obj, c.maximize).Value
		}
		pt, val, ok := OptimizeLinear(len(c.obj), c.hs, c.obj, c.maximize, c.start)
		if !ok {
			t.Fatalf("%s: no optimum", c.name)
		}
		if math.Abs(val-want) > 1e-7 {
			t.Fatalf("%s: optimum %g at %v, want %g", c.name, val, pt, want)
		}
		if got := MinSlack(c.hs, pt); got < -2*tol {
			t.Fatalf("%s: optimizer %v violates a half-space by %g", c.name, pt, -got)
		}
	}
	// The same shapes through the interior-point LP: a lower-dimensional set
	// has slack 0 (not full-dimensional) from any start.
	for _, hs := range [][]geom.Halfspace{point, slab} {
		for _, start := range [][]float64{nil, {0.5, 0.5}, {7, 7}} {
			if _, slack, ok := InteriorPoint(2, hs, start); ok || math.Abs(slack) > 1e-9 {
				t.Fatalf("start %v: lower-dimensional set reported slack %g, ok=%v", start, slack, ok)
			}
		}
	}
	if pt, slack, ok := InteriorPoint(3, pyramid, []float64{0, 0, 1}); !ok || MinSlack(pyramid, pt) < slack-1e-9 {
		t.Fatalf("pyramid from its apex: interior %v slack %g ok=%v", pt, slack, ok)
	}
}
