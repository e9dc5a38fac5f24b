package lp

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/exact"
	"repro/internal/geom"
)

// exactLP is one LP solved by the rational reference, internal/exact, on the
// half-spaces as given.
type exactLP struct {
	// slack is the exact Chebyshev slack (normalized by the float64 norms,
	// capped at 1) rounded to float64; −Inf when a zero row is false. The set
	// is non-empty exactly when slack ≥ 0: rounding keeps the sign.
	slack  float64
	center []float64 // the exact center, rounded; nil when slack is −Inf
	// bounded, value and x: the optimum, when the set is non-empty and the
	// objective bounded over it.
	bounded bool
	value   float64
	x       []float64
}

// solveExact runs the reference's center LP and, from the exact center, its
// optimize LP.
func solveExact(dim int, hs []geom.Halfspace, obj []float64, maximize bool) exactLP {
	a := make([][]float64, len(hs))
	b := make([]float64, len(hs))
	for i, h := range hs {
		a[i], b[i] = h.A, h.B
	}
	xc, tc, ok := exact.Center(dim, a, b)
	if !ok {
		return exactLP{slack: math.Inf(-1)}
	}
	r := exactLP{center: floats(xc)}
	r.slack, _ = tc.Float64()
	if tc.Sign() < 0 {
		return r
	}
	c := append([]float64(nil), obj...)
	if !maximize {
		for j := range c {
			c[j] = -c[j]
		}
	}
	x, val, bounded := exact.Optimize(a, b, c, xc)
	if r.bounded = bounded; bounded {
		r.value, _ = val.Float64()
		if !maximize {
			r.value = -r.value
		}
		r.x = floats(x)
	}
	return r
}

func floats(x []*big.Rat) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j], _ = v.Float64()
	}
	return out
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

// The two-sided comparison's bounds. The kernel works in float64 with
// absolute tolerances on unit-norm rows; the reference is exact. Two things
// separate them. Rounding: over 20 000 decoded inputs (half random bytes,
// half mutated seeds) the Chebyshev slack was within 5.3e-13 of the exact one
// and the optimum within 2.4e-13, relative to the scale below. Harris's ratio
// test: it lets a slack slip up to tol below 0 and counts a leaving one as 0,
// so a few slips on one row can leave the point short by a few tol — 3.4e-9
// on 32 rows within 2⁻⁹ of parallel (seed harris-slip-dim7), the worst the
// fuzzer has found (PR 25 in CHANGES.md).
const (
	// agree bounds |kernel − exact| for the Chebyshev slack and the optimum,
	// relative to the largest coordinate involved (at least 1): a set left
	// unbounded lets a walk pass through points at 1e9, and float64 keeps no
	// absolute 1e-9 there.
	agree = 10 * tol
	// hair: the verdicts are compared wherever the exact Chebyshev slack t
	// is outside a band — [−hair, 0) for "empty", where the kernel counts a
	// set empty by less than tol as non-empty by design, and SlackEps ± hair
	// for "full-dimensional", where a slip or rounding may tip it either way.
	hair = agree
)

// checkCell solves one case with the cell kernel from every kind of start and
// with the exact reference, and holds them to each other both ways: the
// kernel's certificates hold (the slack reported is the slack its point has,
// an optimizer satisfies every half-space), its Chebyshev slack and optimum
// are within agree of the exact ones, and its verdicts — empty, unbounded,
// full-dimensional — are the exact ones outside the hair band.
func checkCell(t *testing.T, c cellCase) {
	t.Helper()
	ref := solveExact(c.dim, c.hs, c.obj, c.maximize)
	starts := [][]float64{nil, c.far}
	if ref.center != nil {
		starts = append(starts, ref.center) // interior when there is one, else the least-violating point
	}
	if ref.bounded {
		starts = append(starts, ref.x) // on a vertex: every pivot out of it is degenerate-prone
	}
	if opp, _, ok := OptimizeLinear(c.dim, c.hs, c.obj, !c.maximize, nil); ok {
		starts = append(starts, opp) // the opposite vertex: the longest walk
	}
	margin := func(b float64, pts ...[]float64) float64 {
		scale := 1 + math.Abs(b)
		for _, pt := range pts {
			for _, v := range pt {
				scale = max(scale, math.Abs(v))
			}
		}
		return agree * scale
	}
	ws := new(Workspace)
	for si, start := range starts {
		in, slack, full := ws.InteriorPoint(c.dim, c.hs, start)
		in2, slack2, full2 := InteriorPoint(c.dim, c.hs, start)
		if full != full2 || slack != slack2 || !sameBits(in, in2) {
			t.Fatalf("start %d: workspace and allocating InteriorPoint differ: %v %g %v vs %v %g %v", si, in, slack, full, in2, slack2, full2)
		}
		if full != (slack > SlackEps) || (full && MinSlack(c.hs, in) < slack) {
			t.Fatalf("start %d: full-dimensional = %v at reported slack %g, point has %g", si, full, slack, MinSlack(c.hs, in))
		}
		if math.Abs(ref.slack-SlackEps) > hair && full != (ref.slack > SlackEps) {
			t.Fatalf("start %d: full-dimensional = %v, exact Chebyshev slack %g", si, full, ref.slack)
		}
		if ref.center != nil {
			in, _, _ = ws.center(c.dim, c.hs, start) // the point, full-dimensional or not
			if math.Abs(slack-ref.slack) > margin(ref.slack, in, ref.center) {
				t.Fatalf("start %d: Chebyshev slack %g, exact %g", si, slack, ref.slack)
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
		if (ref.slack >= 0 || ref.slack < -hair) && ok != ref.bounded {
			t.Fatalf("start %d: optimum found = %v; exact: Chebyshev slack %g, bounded = %v", si, ok, ref.slack, ref.bounded)
		}
		if ok && ref.bounded && math.Abs(val-ref.value) > margin(ref.value, pt, ref.x) {
			t.Fatalf("start %d: optimum %g, exact %g", si, val, ref.value)
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

// FuzzCellLP: the condensed cell kernel against the exact rational reference
// on random and adversarial polytopes — verdict (optimal / empty /
// unbounded), optimal value, Chebyshev slack and full-dimensionality — from a
// nil start, a start far outside, the center and vertices.
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
		{"pyramid down from the apex", pyramid, []float64{0.3, 0.1, 1}, false, []float64{0, 0, 1}, math.NaN()}, // no closed form worth writing down: the exact reference supplies it
		{"single point", point, []float64{1, 1}, true, []float64{0, 0}, 0},
		{"single point from outside", point, []float64{1, 1}, true, []float64{3, -2}, 0},
		{"zero-width slab along it", slab, []float64{1, -1}, true, []float64{0.5, 0.5}, 1},
		{"zero-width slab across it", slab, []float64{1, 1}, true, []float64{1, 0}, 1},
	}
	for _, c := range cases {
		want := c.want
		if math.IsNaN(want) {
			want = solveExact(len(c.obj), c.hs, c.obj, c.maximize).value
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
