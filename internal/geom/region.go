package geom

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Region is a bounded convex polytope in the reduced preference domain. It
// keeps both representations: the bounding half-spaces (H-representation)
// and the defining vertices (V-representation). Boxes — the common case in
// the paper's experiments — carry a fast path for classification.
type Region struct {
	dim        int
	halfspaces []Halfspace
	vertices   [][]float64
	isBox      bool
	lo, hi     []float64
	pivot      []float64
}

// ErrEmptyRegion is returned when a requested region has no full-dimensional
// interior.
var ErrEmptyRegion = errors.New("geom: region is empty or lower-dimensional")

// NewBox builds an axis-parallel hyper-rectangle [lo, hi] in the reduced
// preference domain. It validates that the box is full-dimensional and lies
// inside the domain (all weights non-negative, sum at most one).
func NewBox(lo, hi []float64) (*Region, error) {
	if len(lo) != len(hi) {
		return nil, fmt.Errorf("geom: box corner dimensions differ: %d vs %d", len(lo), len(hi))
	}
	dim := len(lo)
	if dim == 0 {
		return nil, errors.New("geom: zero-dimensional box")
	}
	sumLo := 0.0
	for i := range lo {
		if hi[i]-lo[i] < Eps {
			return nil, fmt.Errorf("geom: box side %d is empty: [%g, %g]: %w", i, lo[i], hi[i], ErrEmptyRegion)
		}
		if lo[i] < -Eps {
			return nil, fmt.Errorf("geom: box extends below zero in dimension %d", i)
		}
		sumLo += lo[i]
	}
	if sumLo >= 1-Eps {
		return nil, fmt.Errorf("geom: box lies outside the weight simplex (Σ lo = %g ≥ 1)", sumLo)
	}
	// One float array backs every row, corner, both bounds and the pivot;
	// each piece is capped at its length, so an append to one never writes
	// into the next.
	nv := 1 << dim
	buf := make([]float64, (2*dim+nv+3)*dim)
	r := &Region{
		dim:        dim,
		isBox:      true,
		lo:         carve(&buf, dim),
		hi:         carve(&buf, dim),
		halfspaces: make([]Halfspace, 0, 2*dim),
		vertices:   make([][]float64, 0, nv),
	}
	copy(r.lo, lo)
	copy(r.hi, hi)
	for i := 0; i < dim; i++ {
		aLo, aHi := carve(&buf, dim), carve(&buf, dim)
		aLo[i], aHi[i] = 1, -1
		r.halfspaces = append(r.halfspaces, Halfspace{A: aLo, B: lo[i]}, Halfspace{A: aHi, B: -hi[i]})
	}
	// Corner mask bit i picks hi_i.
	for mask := 0; mask < nv; mask++ {
		v := carve(&buf, dim)
		for i := range v {
			if mask&(1<<i) != 0 {
				v[i] = hi[i]
			} else {
				v[i] = lo[i]
			}
		}
		r.vertices = append(r.vertices, v)
	}
	r.computePivot(carve(&buf, dim))
	return r, nil
}

// NewPolytope builds a general convex region from bounding half-spaces. The
// vertices are enumerated exactly (intersections of dim-subsets of the
// bounding hyperplanes, kept when feasible); the construction is intended
// for the low-dimensional regions the paper targets. The half-spaces of the
// preference-domain simplex are added implicitly so the region is always
// bounded.
func NewPolytope(dim int, halfspaces []Halfspace) (*Region, error) {
	if dim <= 0 {
		return nil, errors.New("geom: non-positive dimension")
	}
	all := make([]Halfspace, 0, len(halfspaces)+dim+1)
	for _, h := range halfspaces {
		if len(h.A) != dim {
			return nil, fmt.Errorf("geom: half-space dimension %d does not match region dimension %d", len(h.A), dim)
		}
		all = append(all, h.Clone())
	}
	all = append(all, SimplexHalfspaces(dim)...)
	// Exact duplicates change nothing geometrically and would otherwise
	// accumulate when regions are built from other regions' half-space lists
	// (recursive splitting re-adds the simplex rows each level).
	dedup := all[:0]
	for _, h := range all {
		seen := false
		for _, have := range dedup {
			if sameHalfspace(have, h) {
				seen = true
				break
			}
		}
		if !seen {
			dedup = append(dedup, h)
		}
	}
	all = dedup
	verts := EnumerateVertices(dim, all)
	if len(verts) <= dim {
		return nil, ErrEmptyRegion
	}
	r := &Region{dim: dim, halfspaces: all, vertices: verts}
	r.computePivot(make([]float64, dim))
	// Reject lower-dimensional regions: all vertices on a common hyperplane.
	if r.volumeProxy() < Eps {
		return nil, ErrEmptyRegion
	}
	return r, nil
}

// NewPolytopeFromVertices builds a convex region as the hull of the given
// vertex set. The H-representation is derived for boxes only; general
// vertex-only regions keep an empty half-space list and rely on vertex-based
// classification, which is exact for convex hulls.
func NewPolytopeFromVertices(vertices [][]float64) (*Region, error) {
	if len(vertices) == 0 {
		return nil, ErrEmptyRegion
	}
	dim := len(vertices[0])
	vs := make([][]float64, len(vertices))
	for i, v := range vertices {
		if len(v) != dim {
			return nil, fmt.Errorf("geom: vertex %d has dimension %d, want %d", i, len(v), dim)
		}
		vs[i] = append([]float64(nil), v...)
	}
	r := &Region{dim: dim, vertices: vs}
	r.computePivot(make([]float64, dim))
	return r, nil
}

// Dim returns the dimensionality of the preference domain the region lives
// in (d−1 for d-dimensional data).
func (r *Region) Dim() int { return r.dim }

// IsBox reports whether the region is an axis-parallel box.
func (r *Region) IsBox() bool { return r.isBox }

// Bounds returns the box corners, or nil if the region is not a box.
func (r *Region) Bounds() (lo, hi []float64) {
	if !r.isBox {
		return nil, nil
	}
	return append([]float64(nil), r.lo...), append([]float64(nil), r.hi...)
}

// HasHRep reports whether the region carries an H-representation (bounding
// half-spaces). Regions built from vertices alone do not; geometric
// operations that clip or intersect by half-space (cell clipping) must
// refuse them rather than silently clip against nothing.
func (r *Region) HasHRep() bool { return len(r.halfspaces) > 0 }

// Halfspaces returns the bounding half-spaces (a copy).
func (r *Region) Halfspaces() []Halfspace {
	out := make([]Halfspace, len(r.halfspaces))
	for i, h := range r.halfspaces {
		out[i] = h.Clone()
	}
	return out
}

// HalfspacesView returns the bounding half-spaces without copying them: the
// caller must not modify the slice or any coefficient.
func (r *Region) HalfspacesView() []Halfspace { return r.halfspaces }

// VerticesView returns the defining vertices without copying them: the
// caller must not modify the slice or any coordinate.
func (r *Region) VerticesView() [][]float64 { return r.vertices }

// Vertices returns the defining vertices (a copy).
func (r *Region) Vertices() [][]float64 {
	out := make([][]float64, len(r.vertices))
	for i, v := range r.vertices {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// Pivot returns the pivot vector of the region: the per-dimension average of
// its vertices. Convexity guarantees the pivot lies inside the region; the
// r-skyband search and anchor selection use it as the representative weight
// vector.
func (r *Region) Pivot() []float64 {
	return append([]float64(nil), r.pivot...)
}

// Contains reports whether the reduced weight vector w lies in the region.
func (r *Region) Contains(w []float64) bool {
	if r.isBox {
		for i := range w {
			if w[i] < r.lo[i]-Eps || w[i] > r.hi[i]+Eps {
				return false
			}
		}
		return true
	}
	if len(r.halfspaces) > 0 {
		for _, h := range r.halfspaces {
			if !h.Contains(w) {
				return false
			}
		}
		return true
	}
	// Vertex-only region: fall back to an approximate test via the support
	// function is not exact; regions built from vertices alone are only used
	// where Classify suffices.
	panic("geom: Contains on vertex-only region without H-representation")
}

// ContainsRegion reports whether other ⊆ r. The test is exact for convex
// regions (up to the global Eps tolerance): other is contained iff it lies
// inside every bounding half-space of r, and Classify decides each of those
// by the vertex extremes of the linear functional. A region without an
// H-representation (built from vertices only) cannot certify containment of
// anything and reports false.
func (r *Region) ContainsRegion(other *Region) bool {
	if other == nil || r.dim != other.dim {
		return false
	}
	if r.isBox && other.isBox {
		for i := range r.lo {
			if other.lo[i] < r.lo[i]-Eps || other.hi[i] > r.hi[i]+Eps {
				return false
			}
		}
		return true
	}
	if len(r.halfspaces) == 0 {
		return false
	}
	for _, h := range r.halfspaces {
		if other.Classify(h) != Inside {
			return false
		}
	}
	return true
}

// ClipConstraints returns a half-space set bounding cons ∩ r: the input
// constraints followed by r's bounding half-spaces, with exact duplicates
// dropped (clipping a cell to the region it was carved from must not grow
// the constraint list). The input slices are not modified; the result is a
// fresh slice sharing the individual half-spaces.
func (r *Region) ClipConstraints(cons []Halfspace) []Halfspace {
	out := make([]Halfspace, 0, len(cons)+len(r.halfspaces))
	out = append(out, cons...)
	for _, h := range r.halfspaces {
		dup := false
		for _, have := range cons {
			if sameHalfspace(have, h) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	return out
}

// sameHalfspace reports bit-exact equality of two half-spaces.
func sameHalfspace(a, b Halfspace) bool {
	if len(a.A) != len(b.A) || a.B != b.B {
		return false
	}
	for i := range a.A {
		if a.A[i] != b.A[i] {
			return false
		}
	}
	return true
}

// InteriorBy reports whether w lies at least margin inside the region:
// every bounding half-space is satisfied with slack ≥ margin·‖A‖ (the same
// normalized-slack measure the LP interior-point test uses), so a ball of
// radius margin around w stays inside. Regions without an H-representation
// report false.
func (r *Region) InteriorBy(w []float64, margin float64) bool {
	if r.isBox {
		for i := range w {
			if w[i] < r.lo[i]+margin || w[i] > r.hi[i]-margin {
				return false
			}
		}
		return true
	}
	if len(r.halfspaces) == 0 {
		return false
	}
	for _, h := range r.halfspaces {
		norm := 0.0
		for _, a := range h.A {
			norm += a * a
		}
		norm = math.Sqrt(norm)
		if norm <= Eps {
			if h.B > Eps {
				return false
			}
			continue
		}
		if h.Eval(w) < margin*norm {
			return false
		}
	}
	return true
}

// ConstraintBounds computes a sound outer bounding box of the polytope
// ∩{A_i·w ≥ B_i} by interval constraint propagation: each constraint, given
// current bounds on the other coordinates, implies a one-sided bound on each
// coordinate it mentions, and a few passes let bounds sharpen each other.
// The result always CONTAINS the polytope (it is generally not tight), which
// is exactly what sound containment/disjointness pre-tests need. ok is false
// when some coordinate stays unbounded — callers then skip the box-based
// fast paths. Cost is O(passes·m·dim), no LP.
func ConstraintBounds(dim int, cons []Halfspace, passes int) (lo, hi []float64, ok bool) {
	lo = make([]float64, dim)
	hi = make([]float64, dim)
	for i := range lo {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	for p := 0; p < passes; p++ {
		improved := false
		for _, h := range cons {
			for i, ai := range h.A {
				if ai > Eps {
					// a_i·w_i ≥ B − Σ_{j≠i} max(a_j·w_j)
					rest, bounded := maxRest(h.A, lo, hi, i)
					if !bounded {
						continue
					}
					if b := (h.B - rest) / ai; b > lo[i]+Eps {
						lo[i] = b
						improved = true
					}
				} else if ai < -Eps {
					rest, bounded := maxRest(h.A, lo, hi, i)
					if !bounded {
						continue
					}
					if b := (h.B - rest) / ai; b < hi[i]-Eps {
						hi[i] = b
						improved = true
					}
				}
			}
		}
		if !improved {
			break // fixed point: further passes cannot tighten anything
		}
	}
	for i := range lo {
		if math.IsInf(lo[i], 0) || math.IsInf(hi[i], 0) {
			return nil, nil, false
		}
	}
	return lo, hi, true
}

// maxRest returns the maximum of Σ_{j≠skip} a_j·w_j over the current bounds,
// reporting bounded=false when a participating coordinate is unbounded in
// the needed direction.
func maxRest(a, lo, hi []float64, skip int) (float64, bool) {
	s := 0.0
	for j, aj := range a {
		if j == skip || aj == 0 {
			continue
		}
		if aj > 0 {
			if math.IsInf(hi[j], 1) {
				return 0, false
			}
			s += aj * hi[j]
		} else {
			if math.IsInf(lo[j], -1) {
				return 0, false
			}
			s += aj * lo[j]
		}
	}
	return s, true
}

// ClassifyBox positions the axis-parallel box [lo, hi] relative to the
// region: Inside when the box (and so anything it contains) lies in the
// region, Outside when the box misses the region's interior entirely, and
// Straddle otherwise. Exact up to the global Eps tolerance, O(m·dim).
func (r *Region) ClassifyBox(lo, hi []float64) Side {
	if len(r.halfspaces) == 0 {
		return Straddle
	}
	inside := true
	for _, h := range r.halfspaces {
		mn, mx := boxExtremes(h, lo, hi)
		if mx <= Eps {
			return Outside // the box never enters this half-space's interior
		}
		if mn < -Eps {
			inside = false
		}
	}
	if inside {
		return Inside
	}
	return Straddle
}

// Classify positions the region relative to the closed half-space h. The
// test is exact for convex regions: the minimum and maximum of the linear
// functional over the region are attained at vertices.
func (r *Region) Classify(h Halfspace) Side {
	if r.isBox {
		lo, hi := boxExtremes(h, r.lo, r.hi)
		return sideFromExtremes(lo, hi)
	}
	lo := math.Inf(1)
	hi := math.Inf(-1)
	for _, v := range r.vertices {
		e := h.Eval(v)
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return sideFromExtremes(lo, hi)
}

// DominatesOver reports whether record p's score is at least record q's over
// the entire region, with a strict advantage somewhere — the r-dominance
// test of the paper's Definition 1. It is the allocation-free equivalent of
// Classify(DualHalfspace(p, q)) == Inside, the innermost operation of the
// filtering step, and follows the same accumulation order so verdicts match
// bit for bit.
func (r *Region) DominatesOver(p, q []float64) bool {
	d := len(p)
	pd, qd := p[d-1], q[d-1]
	negB := pd - qd // −B of the dual half-space
	trivial := true
	if r.isBox {
		// Single pass: accumulate the box minimum of the dual functional and
		// detect the all-zero normal along the way.
		mn := negB
		for i := 0; i < d-1; i++ {
			a := (p[i] - pd) - (q[i] - qd)
			if a >= 0 {
				if a > Eps {
					trivial = false
				}
				mn += a * r.lo[i]
			} else {
				if a < -Eps {
					trivial = false
				}
				mn += a * r.hi[i]
			}
		}
		if trivial {
			// Equal scores everywhere up to the constant term: p r-dominates
			// q only when it is strictly better by that constant.
			return negB > Eps
		}
		return mn >= -Eps
	}
	for i := 0; i < d-1; i++ {
		if a := (p[i] - pd) - (q[i] - qd); a > Eps || a < -Eps {
			trivial = false
			break
		}
	}
	if trivial {
		return negB > Eps
	}
	mn := math.Inf(1)
	for _, v := range r.vertices {
		e := negB
		for i := 0; i < d-1; i++ {
			e += ((p[i] - pd) - (q[i] - qd)) * v[i]
		}
		if e < mn {
			mn = e
		}
	}
	return mn >= -Eps
}

// ScoreRange returns the minimum and maximum score of record p over the
// region. Both extremes of the linear functional are attained at vertices;
// boxes use the O(dim) per-coordinate sign rule instead.
func (r *Region) ScoreRange(p []float64) (mn, mx float64) {
	d := len(p)
	pd := p[d-1]
	if r.isBox {
		mn, mx = pd, pd
		for i := 0; i < d-1; i++ {
			a := p[i] - pd
			if a >= 0 {
				mn += a * r.lo[i]
				mx += a * r.hi[i]
			} else {
				mn += a * r.hi[i]
				mx += a * r.lo[i]
			}
		}
		return mn, mx
	}
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, v := range r.vertices {
		s := pd
		for i := 0; i < d-1; i++ {
			s += (p[i] - pd) * v[i]
		}
		if s < mn {
			mn = s
		}
		if s > mx {
			mx = s
		}
	}
	return mn, mx
}

// MinScore returns only the minimum score of record p over the region. It
// follows the exact accumulation order of ScoreRange so the value matches
// bit for bit, while skipping the half of the work ScoreRange spends on the
// other extreme — the skyband filter's accept test needs only this side.
func (r *Region) MinScore(p []float64) float64 {
	d := len(p)
	pd := p[d-1]
	if r.isBox {
		mn := pd
		for i := 0; i < d-1; i++ {
			a := p[i] - pd
			if a >= 0 {
				mn += a * r.lo[i]
			} else {
				mn += a * r.hi[i]
			}
		}
		return mn
	}
	mn := math.Inf(1)
	for _, v := range r.vertices {
		s := pd
		for i := 0; i < d-1; i++ {
			s += (p[i] - pd) * v[i]
		}
		if s < mn {
			mn = s
		}
	}
	return mn
}

// MaxScore is the upper-extreme counterpart of MinScore, used by the prune
// test of the skyband filter. Same bit-identical accumulation order as
// ScoreRange.
func (r *Region) MaxScore(p []float64) float64 {
	d := len(p)
	pd := p[d-1]
	if r.isBox {
		mx := pd
		for i := 0; i < d-1; i++ {
			a := p[i] - pd
			if a >= 0 {
				mx += a * r.hi[i]
			} else {
				mx += a * r.lo[i]
			}
		}
		return mx
	}
	mx := math.Inf(-1)
	for _, v := range r.vertices {
		s := pd
		for i := 0; i < d-1; i++ {
			s += (p[i] - pd) * v[i]
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// sideFromExtremes converts the [min, max] range of A·w − B over a region
// into a Side. A region whose maximum is within tolerance of zero only
// touches the boundary and counts as Outside; symmetrically for Inside.
func sideFromExtremes(lo, hi float64) Side {
	if lo >= -Eps {
		return Inside
	}
	if hi <= Eps {
		return Outside
	}
	return Straddle
}

// boxExtremes returns the minimum and maximum of h.Eval over the box
// [lo, hi] in O(dim) by picking the corner per coefficient sign.
func boxExtremes(h Halfspace, lo, hi []float64) (mn, mx float64) {
	mn, mx = -h.B, -h.B
	for i, a := range h.A {
		if a >= 0 {
			mn += a * lo[i]
			mx += a * hi[i]
		} else {
			mn += a * hi[i]
			mx += a * lo[i]
		}
	}
	return mn, mx
}

// computePivot sets the pivot to the vertex average, summed into the zeroed p.
func (r *Region) computePivot(p []float64) {
	for _, v := range r.vertices {
		for i := range p {
			p[i] += v[i]
		}
	}
	n := float64(len(r.vertices))
	if n > 0 {
		for i := range p {
			p[i] /= n
		}
	}
	r.pivot = p
}

// volumeProxy returns a cheap lower-bound proxy for full-dimensionality: the
// product over dimensions of the vertex spread. Zero spread in any dimension
// means the polytope is degenerate only if it is axis-aligned; combined with
// the rank test below it is sufficient for validation purposes.
func (r *Region) volumeProxy() float64 {
	if len(r.vertices) == 0 {
		return 0
	}
	// Rank of the vertex-difference matrix must be dim for a full-dimensional
	// polytope.
	base := r.vertices[0]
	rows := make([][]float64, 0, len(r.vertices)-1)
	for _, v := range r.vertices[1:] {
		row := make([]float64, r.dim)
		for i := range row {
			row[i] = v[i] - base[i]
		}
		rows = append(rows, row)
	}
	if matrixRank(rows, r.dim) < r.dim {
		return 0
	}
	return 1
}

// carve cuts the next n floats off the zeroed backing array *buf, capped at n.
func carve(buf *[]float64, n int) []float64 {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// EnumerateVertices computes the vertices of the polytope ∩{A_i·w ≥ B_i} by
// solving every dim-subset of boundary hyperplanes and keeping feasible
// intersection points. Complexity is O(C(m, dim)·m·dim), which is fine for
// the small m and dim the preference domain uses.
func EnumerateVertices(dim int, halfspaces []Halfspace) [][]float64 {
	var verts [][]float64
	idx := make([]int, dim)
	var rec func(start, depth int)
	a := make([][]float64, dim)
	b := make([]float64, dim)
	rec = func(start, depth int) {
		if depth == dim {
			for i, j := range idx {
				a[i] = halfspaces[j].A
				b[i] = halfspaces[j].B
			}
			x, ok := SolveLinearSystem(a, b)
			if !ok {
				return
			}
			for _, h := range halfspaces {
				if h.Eval(x) < -1e-7 {
					return
				}
			}
			verts = append(verts, x)
			return
		}
		for i := start; i < len(halfspaces); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	if dim <= len(halfspaces) {
		rec(0, 0)
	}
	return dedupePoints(verts)
}

// dedupePoints removes near-duplicate points (within 1e-7 per coordinate).
func dedupePoints(pts [][]float64) [][]float64 {
	if len(pts) <= 1 {
		return pts
	}
	sort.Slice(pts, func(i, j int) bool {
		for k := range pts[i] {
			if pts[i][k] != pts[j][k] {
				return pts[i][k] < pts[j][k]
			}
		}
		return false
	})
	out := pts[:1]
	for _, p := range pts[1:] {
		last := out[len(out)-1]
		same := true
		for k := range p {
			if math.Abs(p[k]-last[k]) > 1e-7 {
				same = false
				break
			}
		}
		if !same {
			out = append(out, p)
		}
	}
	return out
}

// SolveLinearSystem solves the square system a·x = b by Gaussian elimination
// with partial pivoting. It reports ok=false for (near-)singular systems.
func SolveLinearSystem(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		pivVal := m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / pivVal
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, true
}

// matrixRank returns the rank of the given row set over `cols` columns,
// computed by Gaussian elimination with a fixed tolerance.
func matrixRank(rows [][]float64, cols int) int {
	m := make([][]float64, len(rows))
	for i, r := range rows {
		m[i] = append([]float64(nil), r...)
	}
	rank := 0
	for col := 0; col < cols && rank < len(m); col++ {
		piv := -1
		for r := rank; r < len(m); r++ {
			if math.Abs(m[r][col]) > 1e-9 {
				piv = r
				break
			}
		}
		if piv < 0 {
			continue
		}
		m[rank], m[piv] = m[piv], m[rank]
		for r := 0; r < len(m); r++ {
			if r == rank {
				continue
			}
			f := m[r][col] / m[rank][col]
			if f == 0 {
				continue
			}
			for c := col; c < cols; c++ {
				m[r][c] -= f * m[rank][c]
			}
		}
		rank++
	}
	return rank
}

// OuterBox returns a sound outer bounding box of the region: the
// componentwise extremes of its vertices (exact for convex regions, whose
// extreme points are vertices). Boxes return their own corners.
func (r *Region) OuterBox() (lo, hi []float64) {
	if r.isBox {
		return append([]float64(nil), r.lo...), append([]float64(nil), r.hi...)
	}
	if len(r.vertices) == 0 {
		return nil, nil
	}
	lo = append([]float64(nil), r.vertices[0]...)
	hi = append([]float64(nil), r.vertices[0]...)
	for _, v := range r.vertices[1:] {
		for i, c := range v {
			if c < lo[i] {
				lo[i] = c
			}
			if c > hi[i] {
				hi[i] = c
			}
		}
	}
	return lo, hi
}

// IntersectBoxes returns the componentwise intersection of two boxes, either
// of which may be nil (nil acts as the whole space). The result is nil when
// both inputs are.
func IntersectBoxes(alo, ahi, blo, bhi []float64) (lo, hi []float64) {
	switch {
	case alo == nil:
		return append([]float64(nil), blo...), append([]float64(nil), bhi...)
	case blo == nil:
		return append([]float64(nil), alo...), append([]float64(nil), ahi...)
	}
	lo = make([]float64, len(alo))
	hi = make([]float64, len(ahi))
	for i := range alo {
		lo[i] = alo[i]
		if blo[i] > lo[i] {
			lo[i] = blo[i]
		}
		hi[i] = ahi[i]
		if bhi[i] < hi[i] {
			hi[i] = bhi[i]
		}
	}
	return lo, hi
}
