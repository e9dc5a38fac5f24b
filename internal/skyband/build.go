package skyband

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// grid indexes a set of rows — the band's entries or the fence's, each its
// id, coordinate sum and record — by a grid over their first min(d, 3)
// coordinates, cut on each axis at the quantiles of the rows' coordinates, so
// a few outlying rows leave the others spread over the cells as evenly as the
// axes allow. A cell keeps the min then the max corner of its rows over all
// d coordinates and the rows themselves (see cell): a search for the rows
// dominating x skips a cell on its max corner and counts it whole on its min
// corner (see dominators), and a search for the rows x dominates does the
// reverse (see under). The constructor's two passes each build one (see
// gridPass), and Dynamic keeps both for its whole life: which one holds an
// entry is its partition, and every search an update makes is one of these
// two visits. Only the grid's own upkeep walks all its rows: resize, when the
// rows double or halve, and redraw, after a row among the largest row minima
// leaves. The grid is a function of the sequence of adds and removes it was
// given, so what a search finds first is too.
type grid struct {
	dim   int
	depth int          // the diagonal shortcut's: see dominators
	m     [3]int       // cells per axis
	cuts  [3][]float64 // axis a's ascending cuts, m[a]−1 of them
	at    []int32      // 1 + the index into cells of each grid position, 0 if none
	cells []cell
	rows  int
	sized int // rows at the last resize; the next comes when they double or halve
	// diag holds the largest row minima, up to depth of them, and best the id
	// of the row with the largest (see dominators). A removed row that may be
	// among them makes them stale until the next search that can use them
	// redraws them.
	diag  kLargest
	best  int
	stale bool
}

// cell holds, in one slab a visit reads front to back, its corners — the
// min then the max over all d coordinates, tight over its rows — and then
// each row as its sum and its d coordinates (a row's gate is gateOf its
// sum); ids holds the rows' ids alongside. Rows keep insertion order, except
// that a removal moves the last row into the gap. An emptied cell keeps its grid
// position and holds nothing until a row lands there again.
type cell struct {
	data []float64
	ids  []int
}

// row returns the j-th row of c in a grid of dimension d: sum, record.
func (c *cell) row(j, d int) (sum float64, rec []float64) {
	r := c.data[2*d+j*(d+1):]
	return r[0], r[1 : 1+d]
}

// rowsPerCell is the average number of rows per grid position that resize
// aims at.
const rowsPerCell = 8

// newGrid returns an empty grid whose diagonal shortcut serves searches
// counting to depth. Its first row fixes its dimension.
func newGrid(depth int) *grid {
	return &grid{depth: depth, m: [3]int{1, 1, 1}, at: make([]int32, 1), sized: rowsPerCell, diag: newKLargest(1)}
}

// add indexes row e (id, record and sum) and re-buckets once the rows have
// doubled since the last resize.
func (g *grid) add(e *entry) {
	g.put(e.id, e.rec, e.sum)
	if g.rows >= 2*g.sized {
		g.resize()
	}
}

// remove drops the row of id, whose record is rec and which the grid must
// hold, re-tightens its cell's corners and re-buckets once the rows have
// halved since the last resize.
func (g *grid) remove(id int, rec []float64) {
	d := g.dim
	c := &g.cells[*g.position(rec)-1]
	j, last := slices.Index(c.ids, id), len(c.ids)-1
	rows := c.data[2*d:]
	copy(rows[j*(d+1):(j+1)*(d+1)], rows[last*(d+1):])
	c.ids[j], c.ids = c.ids[last], c.ids[:last]
	c.data = c.data[:2*d+last*(d+1)]
	if last > 0 {
		_, first := c.row(0, d)
		copy(c.data, first)
		copy(c.data[d:], first)
		for r := 1; r < last; r++ {
			_, rec := c.row(r, d)
			c.widen(rec)
		}
	}
	g.rows--
	// Every row minimum is in a diag that is not full, and one at or above
	// the threshold of a full diag may be.
	if least := slices.Min(rec); len(g.diag) < cap(g.diag) || least >= g.diag[0] {
		g.stale = true
	}
	if g.sized > rowsPerCell && 2*g.rows <= g.sized {
		g.resize()
	}
}

// widen stretches c's corners over rec.
func (c *cell) widen(rec []float64) {
	d := len(rec)
	for j, v := range rec {
		c.data[j], c.data[d+j] = min(c.data[j], v), max(c.data[d+j], v)
	}
}

// resize re-buckets the rows at about rowsPerCell rows per grid position:
// each gridded axis is cut at the per-quantiles of the rows' coordinates,
// skipping a cut that repeats one before it or is no larger than the least
// coordinate (an axis where every row agrees is left out). The diagonal bound
// is redrawn with room for min(depth, rows+1) minima: a deep grid sizes
// nothing, and a diag smaller than depth never serves the shortcut.
func (g *grid) resize() {
	old, n, d := g.cells, g.rows, g.dim
	axes := min(d, 3)
	// The nudge keeps an exact power exact: math.Pow(64, 1/3.) is 3.999….
	per := int(math.Pow(float64(max(n/rowsPerCell, 1)), 1/float64(axes)) + 1e-9)
	vals := make([]float64, 0, n)
	for a := range 3 {
		g.m[a], g.cuts[a] = 1, nil
		if a >= axes || per < 2 {
			continue
		}
		vals = vals[:0]
		for i := range old {
			for j := 2*d + 1 + a; j < len(old[i].data); j += d + 1 {
				vals = append(vals, old[i].data[j])
			}
		}
		slices.Sort(vals)
		for q := 1; q < per; q++ {
			if v := vals[q*n/per]; v > vals[0] && (len(g.cuts[a]) == 0 || v > g.cuts[a][len(g.cuts[a])-1]) {
				g.cuts[a] = append(g.cuts[a], v)
			}
		}
		g.m[a] = len(g.cuts[a]) + 1
	}
	g.at, g.cells, g.rows, g.sized = make([]int32, g.m[0]*g.m[1]*g.m[2]), nil, 0, max(n, rowsPerCell)
	g.diag, g.stale = newKLargest(min(g.depth, n+1)), false
	for _, c := range old {
		for j, id := range c.ids {
			sum, rec := c.row(j, d)
			g.put(id, rec, sum)
		}
	}
}

// axis maps coordinate v onto axis a's cells: the number of cuts at or below
// v. It is monotone and total over every float64 (a NaN lands in cell 0).
func (g *grid) axis(a int, v float64) int {
	cuts := g.cuts[a]
	lo, hi := 0, len(cuts)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); cuts[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// position returns the grid position rec maps to.
func (g *grid) position(rec []float64) *int32 {
	d := g.dim
	return &g.at[(g.axis(0, rec[0])*g.m[1]+g.axis(1, rec[1%d]))*g.m[2]+g.axis(2, rec[2%d])]
}

func (g *grid) put(id int, rec []float64, sum float64) {
	if g.dim == 0 {
		g.dim = len(rec)
	}
	at := g.position(rec)
	if *at == 0 {
		g.cells = append(g.cells, cell{})
		*at = int32(len(g.cells))
	}
	c := &g.cells[*at-1]
	if len(c.ids) == 0 {
		c.data = append(append(c.data[:0], rec...), rec...)
	}
	c.widen(rec)
	c.data = append(append(c.data, sum), rec...)
	c.ids = append(c.ids, id)
	g.rows++
	g.offer(id, rec)
}

// offer folds a row's minimum into diag and best.
func (g *grid) offer(id int, rec []float64) {
	least := slices.Min(rec)
	if n := len(g.diag); n == 0 || least > g.diag[n-1] {
		g.best = id
	}
	g.diag.offer(least)
}

// redraw rebuilds a stale diag and best from every row. The next full-depth
// search runs it once a row among the largest row minima has left.
func (g *grid) redraw() {
	g.diag, g.stale = g.diag[:0], false
	for i := range g.cells {
		c := &g.cells[i]
		for j, id := range c.ids {
			_, rec := c.row(j, g.dim)
			g.offer(id, rec)
		}
	}
}

// relabel replaces every row id i by ids[i]: the constructor's passes index
// slots, which the structure's grids then hold as record ids.
func (g *grid) relabel(ids []int) {
	for i := range g.cells {
		for j, s := range g.cells[i].ids {
			g.cells[i].ids[j] = ids[s]
		}
	}
	if g.rows > 0 {
		g.best = ids[g.best]
	}
}

// dominators counts the rows dominating x and stops once the count reaches
// limit; below limit it is exact. first is the id of the first dominator
// found, -1 if none. A row whose smallest coordinate exceeds the largest of
// x + Eps dominates x, so when limit is the grid's depth and the limit-th
// largest row minimum does, the answer is limit, the row with the largest
// minimum first, without a scan. Otherwise the scan visits the grid
// positions that can hold a dominator — on every axis, those at or above the
// one of x − Eps (the map is monotone) — strongest first.
func (g *grid) dominators(x *entry, limit int) (n, first int) {
	first = -1
	if g.rows == 0 {
		return 0, first
	}
	if limit == g.depth {
		if g.stale {
			g.redraw()
		}
		if len(g.diag) == limit && slices.Max(x.rec)+geom.Eps < g.diag[0] {
			return limit, g.best
		}
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
				if len(c.ids) == 0 || !reaches(c.data[d:2*d], x.rec) {
					continue
				}
				if geom.Dominates(c.data[:d], x.rec) {
					if first < 0 {
						first = c.ids[0]
					}
					if n += len(c.ids); n >= limit {
						return limit, first
					}
					continue
				}
				for j, id := range c.ids {
					if sum, rec := c.row(j, d); passes(sum, x.gate) && geom.Dominates(rec, x.rec) {
						if first < 0 {
							first = id
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

// under appends to dst the ids of the rows x dominates and returns it. It
// visits the grid positions that can hold such a row — on every axis, those
// at or below the one of x + Eps, widened by a relative term that outweighs
// the rounding of both sides (see gateOf) — skips a cell whose min corner x
// does not reach, and takes a cell whose max corner x dominates whole.
func (g *grid) under(x *entry, dst []int) []int {
	if g.rows == 0 {
		return dst
	}
	d := g.dim
	up := func(v float64) float64 { return v + geom.Eps + (1+math.Abs(v))*4e-12 }
	to0, to1, to2 := g.axis(0, up(x.rec[0])), g.axis(1, up(x.rec[1%d])), g.axis(2, up(x.rec[2%d]))
	for c0 := 0; c0 <= to0; c0++ {
		for c1 := 0; c1 <= to1; c1++ {
			line := g.at[(c0*g.m[1]+c1)*g.m[2]:]
			for c2 := 0; c2 <= to2; c2++ {
				if line[c2] == 0 {
					continue
				}
				c := &g.cells[line[c2]-1]
				if len(c.ids) == 0 || !reaches(x.rec, c.data[:d]) {
					continue
				}
				if geom.Dominates(x.rec, c.data[d:2*d]) {
					dst = append(dst, c.ids...)
					continue
				}
				for j, id := range c.ids {
					if sum, rec := c.row(j, d); passes(x.sum, gateOf(sum, d)) && geom.Dominates(x.rec, rec) {
						dst = append(dst, id)
					}
				}
			}
		}
	}
	return dst
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

// gridPass sends the slots of order, strongest first, through g, whose rows
// are the slots it admits: a record is admitted when fewer than g.depth rows
// dominate it. visit sees every record in order with n, its admitted
// dominators counted up to the limit (exact below), and first, the slot of
// one of them or -1. The grid re-buckets on its own row count, so what visit
// sees is a function of recs and order alone.
func gridPass(g *grid, recs [][]float64, order []ranked, visit func(r ranked, n, first int)) {
	for _, r := range order {
		e := newEntry(r.slot, recs[r.slot])
		n, first := g.dominators(&e, g.depth)
		if n < g.depth {
			g.add(&e)
		}
		visit(r, n, first)
	}
}
