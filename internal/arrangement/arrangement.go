// Package arrangement implements the disposable half-space arrangement index
// of Section 4.5: cells (partitions) of a convex region are represented
// implicitly by the half-spaces that bound them, organized as the leaves of
// a binary split tree. The index supports incremental half-space insertion,
// per-cell coverage counting, and identification of the covering
// half-spaces — the three operations the RSA/JAA refinement steps use.
//
// Classification of a cell against a new half-space is an exact LP decision
// (minimum and maximum of the functional over the cell), with a witness-point
// cache that answers most straddle cases without touching the solver, and
// every LP that does run starts from a point the cell already holds (its
// interior, a witness), so none pays for a phase 1. Cells are kept only when
// full-dimensional (interior slack above lp.SlackEps), so leaves are pairwise
// disjoint and cover the region up to measure-zero boundaries — the same
// semantics the paper's partitions have.
package arrangement

import (
	"errors"
	"math"

	"repro/internal/bitset"
	"repro/internal/geom"
	"repro/internal/lp"
)

// classEps is the tolerance for deciding that a cell lies entirely on one
// side of a hyperplane.
const classEps = 1e-7

// maxWitnesses caps the per-cell witness cache.
const maxWitnesses = 12

// Stats aggregates work and space counters across arrangements; the
// experiment harness uses them for the paper's space measurements.
type Stats struct {
	LPCalls    int
	CellSplits int
	PeakCells  int
	PeakBytes  int
}

// Cell is a full-dimensional partition of the arrangement's region.
type Cell struct {
	constraints []geom.Halfspace
	covering    bitset.Set
	count       int
	interior    []float64
	witnesses   [][]float64
}

// Count returns how many inserted half-spaces cover the cell.
func (c *Cell) Count() int { return c.count }

// Covering returns the ids of the inserted half-spaces covering the cell.
// The returned set is the cell's own; callers must not modify it.
func (c *Cell) Covering() bitset.Set { return c.covering }

// Interior returns a cached strictly-interior point of the cell.
func (c *Cell) Interior() []float64 { return c.interior }

// Constraints returns the half-spaces bounding the cell (the region's bounds
// plus one side per split hyperplane on the cell's path). Callers must not
// modify the returned slice.
func (c *Cell) Constraints() []geom.Halfspace { return c.constraints }

// Arrangement is a disposable arrangement index over one convex region.
type Arrangement struct {
	dim      int
	cells    []*Cell
	capacity int
	stats    *Stats
	ws       *lp.Workspace
}

// ErrEmptyCell is returned when the base region has no full-dimensional
// interior.
var ErrEmptyCell = errors.New("arrangement: base region is empty or lower-dimensional")

// New creates an arrangement whose single initial cell is the region bounded
// by base. capacity is the exclusive upper bound on half-space ids that will
// be inserted (covering sets are bit sets of that size). stats may be nil.
func New(dim int, base []geom.Halfspace, capacity int, stats *Stats) (*Arrangement, error) {
	return NewWith(dim, base, capacity, stats, nil, nil)
}

// NewWith is New with a reusable LP workspace (nil allocates per LP) for
// every LP the arrangement issues, and the interior point the caller holds
// for the region — the cell's Interior() when base is a cell of another
// arrangement, the region's pivot at the root. A hint with normalized slack
// above lp.SlackEps against every base half-space is the root cell's interior
// as is, and no LP runs; any other point (nil included) is only where the
// interior-point LP starts. The workspace must stay owned by the calling task
// for the arrangement's lifetime; results (cell interiors, witnesses) never
// alias it, and the hint is shared, not copied — it must not be modified.
func NewWith(dim int, base []geom.Halfspace, capacity int, stats *Stats, ws *lp.Workspace, interior []float64) (*Arrangement, error) {
	if stats == nil {
		stats = &Stats{}
	}
	a := &Arrangement{dim: dim, capacity: capacity, stats: stats, ws: ws}
	if interior == nil || lp.MinSlack(base, interior) <= lp.SlackEps {
		stats.LPCalls++
		var ok bool
		if interior, _, ok = ws.InteriorPoint(dim, base, interior); !ok {
			return nil, ErrEmptyCell
		}
	}
	cons := make([]geom.Halfspace, len(base))
	for i, h := range base {
		cons[i] = h.Clone()
	}
	root := &Cell{
		constraints: cons,
		covering:    bitset.New(capacity),
		interior:    interior,
		witnesses:   [][]float64{interior},
	}
	a.cells = []*Cell{root}
	a.trackPeak()
	return a, nil
}

// Cells returns the current cells. The slice is owned by the arrangement.
func (a *Arrangement) Cells() []*Cell { return a.cells }

// Stats returns the shared counters.
func (a *Arrangement) Stats() *Stats { return a.stats }

// MinCount returns the smallest coverage count over all cells (0 cells ⇒
// capacity, which acts as +∞ for thresholds up to the id space).
func (a *Arrangement) MinCount() int {
	if len(a.cells) == 0 {
		return a.capacity
	}
	mn := a.cells[0].count
	for _, c := range a.cells[1:] {
		if c.count < mn {
			mn = c.count
		}
	}
	return mn
}

// Insert adds the closed half-space h with the given id, splitting every
// cell the bounding hyperplane properly cuts and incrementing the coverage
// count of cells inside h.
func (a *Arrangement) Insert(id int, h geom.Halfspace) {
	if h.IsTrivial() {
		if h.B <= geom.Eps {
			// Whole-domain half-space: covers everything.
			for _, c := range a.cells {
				c.count++
				c.covering.Set(id)
			}
		}
		return
	}
	out := a.cells[:0:0]
	for _, c := range a.cells {
		out = a.insertIntoCell(out, c, id, h)
	}
	a.cells = out
	a.trackPeak()
}

// insertIntoCell classifies cell c against h and appends the resulting
// cell(s) to out.
func (a *Arrangement) insertIntoCell(out []*Cell, c *Cell, id int, h geom.Halfspace) []*Cell {
	hasPos, hasNeg := false, false
	for _, w := range c.witnesses {
		e := h.Eval(w)
		if e > classEps {
			hasPos = true
		} else if e < -classEps {
			hasNeg = true
		}
		if hasPos && hasNeg {
			break
		}
	}
	if !(hasPos && hasNeg) {
		// Witnesses are inconclusive; resolve with exact extremes. When the
		// witnesses already prove one side is occupied, only the opposite
		// extreme needs the solver.
		if !hasPos {
			a.stats.LPCalls++
			maxPt, mx, ok := a.ws.OptimizeLinear(a.dim, c.constraints, h.A, true, c.interior)
			if !ok {
				return out // defensive: infeasible cells should not exist
			}
			c.addWitness(maxPt)
			if mx-h.B <= classEps {
				return append(out, c) // entirely outside
			}
		}
		if !hasNeg {
			a.stats.LPCalls++
			minPt, mn, ok := a.ws.OptimizeLinear(a.dim, c.constraints, h.A, false, c.interior)
			if !ok {
				return out
			}
			c.addWitness(minPt)
			if mn-h.B >= -classEps {
				c.count++
				c.covering.Set(id)
				return append(out, c) // entirely inside
			}
		}
	}
	// Proper split.
	a.stats.CellSplits++
	neg := h.Negate()
	inside := &Cell{
		constraints: appendConstraint(c.constraints, h),
		covering:    c.covering.Clone(),
		count:       c.count + 1,
	}
	inside.covering.Set(id)
	outside := &Cell{
		constraints: appendConstraint(c.constraints, neg),
		covering:    c.covering,
		count:       c.count,
	}
	for _, w := range c.witnesses {
		e := h.Eval(w)
		if e > classEps {
			inside.witnesses = append(inside.witnesses, w)
		} else if e < -classEps {
			outside.witnesses = append(outside.witnesses, w)
		}
	}
	// The parent's interior point stays a valid interior point of whichever
	// child it lies strictly inside of (the child then contains a ball
	// around it), sparing one max-slack LP.
	norm := l2norm(h.A)
	parentSide := 0.0
	if c.interior != nil && norm > geom.Eps {
		parentSide = h.Eval(c.interior) / norm
	}
	if parentSide > lp.SlackEps {
		inside.interior = c.interior
	} else if parentSide < -lp.SlackEps {
		outside.interior = c.interior
	}
	if inside.interior == nil && !a.solveInterior(inside, c) {
		// The "inside" part is lower-dimensional: the cell only touches the
		// half-space boundary and stays intact on the outside.
		return append(out, c)
	}
	if outside.interior == nil && !a.solveInterior(outside, c) {
		// Symmetric: the cell is effectively covered in full.
		c.count++
		c.covering.Set(id)
		return append(out, c)
	}
	out = append(out, inside)
	out = append(out, outside)
	return out
}

// solveInterior computes the interior point of a fresh child of parent by
// LP, started from a witness already on the child's side when there is one
// (feasible, so the minimum slack only has to grow from ≥ 0) and from the
// parent's interior otherwise. It reports whether the child is
// full-dimensional.
func (a *Arrangement) solveInterior(child, parent *Cell) bool {
	start := parent.interior
	if len(child.witnesses) > 0 {
		start = child.witnesses[0]
	}
	a.stats.LPCalls++
	pt, _, ok := a.ws.InteriorPoint(a.dim, child.constraints, start)
	if ok {
		child.interior = pt
		child.witnesses = append(child.witnesses, pt)
	}
	return ok
}

func l2norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func appendConstraint(cs []geom.Halfspace, h geom.Halfspace) []geom.Halfspace {
	out := make([]geom.Halfspace, len(cs)+1)
	copy(out, cs)
	out[len(cs)] = h
	return out
}

func (c *Cell) addWitness(w []float64) {
	if w == nil || len(c.witnesses) >= maxWitnesses {
		return
	}
	c.witnesses = append(c.witnesses, w)
}

// Bytes estimates the arrangement's memory footprint.
func (a *Arrangement) Bytes() int {
	b := 0
	for _, c := range a.cells {
		b += len(c.constraints) * (a.dim + 1) * 8
		b += (a.capacity + 63) / 64 * 8 // covering bit set
		b += len(c.witnesses) * a.dim * 8
		b += a.dim * 8 // interior
	}
	return b
}

func (a *Arrangement) trackPeak() {
	if n := len(a.cells); n > a.stats.PeakCells {
		a.stats.PeakCells = n
	}
	if b := a.Bytes(); b > a.stats.PeakBytes {
		a.stats.PeakBytes = b
	}
}
