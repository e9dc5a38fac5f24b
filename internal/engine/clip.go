package engine

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rescache"
)

// deriveClipped derives the exact answer for req from src, a cached UTK2
// result computed for a region containing req.Region, by clipping each of
// src's cells to req.Region and dropping empty (or lower-dimensional)
// intersections.
//
// Exactness: the top-k order is constant within each UTK2 cell, so for
// R ⊆ R' the surviving intersections {C ∩ R} partition R (up to the same
// measure-zero boundaries JAA's own cells are open up to) with unchanged
// top-k sets — UTK2(R) follows directly, and UTK1(R) is the union of the
// surviving cells' top-k sets: every reported id has a full-dimensional
// witness cell inside R, and no id is missed because the cells cover R.
//
// The derived result carries zero refinement work in its stats (no RSA
// verifies, no JAA partitions, no drills — only the clipping time, reported
// as RefineDuration) and inherits the source's recompute cost and epoch, so
// caching it preserves the cost-aware eviction semantics. It returns nil
// when no cell survives clipping, which cannot happen for a genuinely
// containing full-dimensional source and is treated as "fall back to a real
// computation" by callers.
func deriveClipped(req Request, src *Result) *Result {
	if src == nil || src.Cells == nil {
		return nil
	}
	// Clipping intersects by half-space; a query region without an
	// H-representation (vertex-only) has nothing to clip against, and
	// proceeding would keep every source cell unclipped — a wrong, superset
	// answer. Refuse so the caller computes normally.
	if !req.Region.HasHRep() {
		return nil
	}
	start := time.Now()
	dim := req.Region.Dim()
	res := &Result{Epoch: src.Epoch, Cost: src.Cost, Derived: true}
	switch req.Variant {
	case UTK1:
		// Only the union of surviving cells' ids matters, so a cell whose
		// top-k set is already fully collected needs no feasibility test at
		// all: including or excluding it cannot change the union. Distinct
		// top-k sets are typically far fewer than cells, so most cells skip
		// the geometric work entirely.
		ids := make(map[int]bool)
		covered := func(c *core.CellResult) bool {
			for _, id := range c.TopK {
				if !ids[id] {
					return false
				}
			}
			return true
		}
		for i := range src.Cells {
			c := &src.Cells[i]
			if covered(c) {
				continue
			}
			if rescache.CellIntersects(dim, c.Constraints, c.Interior, c.BoxLo, c.BoxHi, req.Region) {
				for _, id := range c.TopK {
					ids[id] = true
				}
			}
		}
		if len(ids) == 0 {
			return nil
		}
		res.IDs = make([]int, 0, len(ids))
		for id := range ids {
			res.IDs = append(res.IDs, id)
		}
		sort.Ints(res.IDs)
	case UTK2:
		// The clipped cell inherits a sound outer box: it is contained in
		// both the source cell (so in its box) and in the query region (so
		// in the region's outer box); the intersection of the two bounds it.
		rlo, rhi := req.Region.OuterBox()
		var cells []core.CellResult
		for _, c := range src.Cells {
			cons, interior, ok := rescache.ClipCell(dim, c.Constraints, c.Interior, c.BoxLo, c.BoxHi, req.Region)
			if !ok {
				continue
			}
			cell := core.CellResult{Constraints: cons, Interior: interior, TopK: c.TopK}
			if rlo != nil {
				cell.BoxLo, cell.BoxHi = geom.IntersectBoxes(c.BoxLo, c.BoxHi, rlo, rhi)
			}
			cells = append(cells, cell)
		}
		if len(cells) == 0 {
			return nil
		}
		res.Cells = cells
	default:
		return nil
	}
	res.Stats = derivedStats(src, res.Cells)
	res.Stats.RefineDuration = time.Since(start)
	return res
}

// derivedStats builds the stats of a clip-derived result: the source's
// candidate count (the filtering the answer ultimately rests on), fresh
// partition counters for the clipped cells, and zero refinement work.
func derivedStats(src *Result, cells []core.CellResult) core.Stats {
	st := core.Stats{Candidates: src.Stats.Candidates}
	if cells != nil {
		st.Partitions = len(cells)
		seen := make(map[string]bool, len(cells))
		for _, c := range cells {
			key := make([]byte, 0, len(c.TopK)*4)
			for _, id := range c.TopK {
				key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			seen[string(key)] = true
		}
		st.UniqueTopKSets = len(seen)
	}
	return st
}

// cellInteriorInside is a test hook asserting the derived cells' interiors
// lie inside the clip region.
func cellInteriorInside(cells []core.CellResult, r *geom.Region) bool {
	for _, c := range cells {
		if !r.Contains(c.Interior) {
			return false
		}
	}
	return true
}
