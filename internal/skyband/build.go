package skyband

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// grid is the construction-only index of a grid pass: the records admitted so
// far, bucketed by a uniform grid over the first min(d, 3) coordinates of
// their bounding box. A cell keeps its rows flat with their sums and slots,
// and box, the min then the max corner of its rows over all d coordinates, so
// a probe skips a cell on its max corner and counts it whole on its min
// corner.
type grid struct {
	dim   int
	m     [3]int     // cells per axis
	lo    [3]float64 // the box's low corner, halved
	scale [3]float64 // cells per unit of the halved span; 0 leaves the axis out
	at    []int32    // 1 + the index into cells of each grid position, 0 if empty
	cells []cell
	rows  int
	// diag holds the limit largest row minima, best the slot of the row with
	// the largest (see dominators).
	diag kLargest
	best int
}

type cell struct {
	rows, sums, box []float64
	slots           []int
}

// rowsPerCell is the average number of rows per grid position that resize
// aims at.
const rowsPerCell = 8

// resize re-buckets the rows over their bounding box, at about rowsPerCell
// rows per grid position. Halving keeps every span finite (±MaxFloat64
// corners included); a zero span leaves its axis out, and a tiny one whose
// scale overflows still maps monotonically (see axis).
func (g *grid) resize() {
	old, axes := g.cells, min(g.dim, 3)
	per := int(math.Pow(float64(max(g.rows/rowsPerCell, 1)), 1/float64(axes)))
	for a := range 3 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range old {
			lo, hi = min(lo, old[i].box[a%g.dim]), max(hi, old[i].box[g.dim+a%g.dim])
		}
		g.m[a], g.lo[a], g.scale[a] = 1, lo/2, 0
		if span := hi/2 - lo/2; a < axes && span > 0 {
			g.m[a], g.scale[a] = per, float64(per)/span
		}
	}
	g.at, g.cells, g.rows, g.diag = make([]int32, g.m[0]*g.m[1]*g.m[2]), nil, 0, g.diag[:0]
	for _, c := range old {
		for j, s := range c.slots {
			g.add(s, c.rows[j*g.dim:(j+1)*g.dim], c.sums[j])
		}
	}
}

// axis maps coordinate v onto axis a's cells. It is monotone and total over
// every float64: a value below the box (or NaN) lands in cell 0, one above it
// in the last cell, and the int conversion only ever sees [0, m).
func (g *grid) axis(a int, v float64) int {
	t := (v/2 - g.lo[a]) * g.scale[a]
	switch {
	case !(t > 0):
		return 0
	case t >= float64(g.m[a]):
		return g.m[a] - 1
	}
	return int(t)
}

func (g *grid) add(slot int, rec []float64, sum float64) {
	d := g.dim
	at := &g.at[(g.axis(0, rec[0])*g.m[1]+g.axis(1, rec[1%d]))*g.m[2]+g.axis(2, rec[2%d])]
	if *at == 0 {
		g.cells = append(g.cells, cell{box: append(slices.Clone(rec), rec...)})
		*at = int32(len(g.cells))
	}
	c := &g.cells[*at-1]
	for j, v := range rec {
		c.box[j], c.box[d+j] = min(c.box[j], v), max(c.box[d+j], v)
	}
	c.rows, c.sums, c.slots = append(c.rows, rec...), append(c.sums, sum), append(c.slots, slot)
	g.rows++
	least := slices.Min(rec)
	if n := len(g.diag); n == 0 || least > g.diag[n-1] {
		g.best = slot
	}
	g.diag.offer(least)
}

// dominators counts the rows dominating x and stops once the count reaches
// limit; below limit it is exact. first is the slot of the first dominator
// found, -1 if none. A row whose smallest coordinate exceeds the largest of
// x + Eps dominates x, so when the limit-th largest row minimum does, the
// answer is limit, the row with the largest minimum first, without a scan.
// Otherwise the scan visits the grid positions that can hold a dominator —
// on every axis, those at or above the one of x − Eps (the map is monotone)
// — strongest first.
func (g *grid) dominators(x *entry, limit int) (n, first int) {
	first = -1
	if t, ok := g.diag.kth(); ok && slices.Max(x.rec)+geom.Eps < t {
		return limit, g.best
	}
	d := g.dim
	from0, from1, from2 := g.axis(0, x.rec[0]-geom.Eps), g.axis(1, x.rec[1%d]-geom.Eps), g.axis(2, x.rec[2%d]-geom.Eps)
	for c0 := g.m[0] - 1; c0 >= from0; c0-- {
		for c1 := g.m[1] - 1; c1 >= from1; c1-- {
			line := g.at[(c0*g.m[1]+c1)*g.m[2]:]
			for c2 := g.m[2] - 1; c2 >= from2; c2-- {
				if line[c2] == 0 {
					continue
				}
				c := &g.cells[line[c2]-1]
				if !reaches(c.box[d:], x.rec) {
					continue
				}
				if geom.Dominates(c.box[:d], x.rec) {
					if first < 0 {
						first = c.slots[0]
					}
					if n += len(c.slots); n >= limit {
						return n, first
					}
					continue
				}
				for j, s := range c.slots {
					if passes(c.sums[j], x.gate) && geom.Dominates(c.rows[j*d:(j+1)*d], x.rec) {
						if first < 0 {
							first = s
						}
						if n++; n >= limit {
							return n, first
						}
					}
				}
			}
		}
	}
	return n, first
}

// reaches reports whether hi is at least x − Eps in every coordinate: when it
// is not, geom.Dominates(p, x) fails for every p ≤ hi.
func reaches(hi, x []float64) bool {
	for j, v := range x {
		if hi[j] < v-geom.Eps {
			return false
		}
	}
	return true
}

// gridPass sends the slots of order, strongest first, through a grid of the
// records it admits: a record is admitted when fewer than limit admitted
// records dominate it. visit sees every record in order with n, its admitted
// dominators counted up to limit (exact below), and first, the slot of one of
// them or -1. The grid is resized whenever its rows double, so what visit
// sees is a function of recs and order alone.
func gridPass(recs [][]float64, order []ranked, limit int, visit func(r ranked, n, first int)) {
	if len(order) == 0 {
		return
	}
	g := &grid{dim: len(recs[order[0].slot]), m: [3]int{1, 1, 1}, at: make([]int32, 1), diag: newKLargest(max(limit, 1))}
	sized := rowsPerCell
	for _, r := range order {
		e := newEntry(r.slot, recs[r.slot], 0)
		n, first := g.dominators(&e, limit)
		if n < limit {
			g.add(r.slot, e.rec, e.sum)
			if g.rows >= 2*sized {
				g.resize()
				sized = g.rows
			}
		}
		visit(r, n, first)
	}
}
