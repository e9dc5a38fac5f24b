// Package hull computes onion layers (Chang et al.'s onion technique)
// restricted to convex-hull facets whose normal lies in the first quadrant —
// the variant the paper's ON baseline filters with, applied to the k-skyband
// as its implementation note ([10, 52]) prescribes (README, "Paper
// reproduction").
//
// A record is on such a facet exactly when some weight vector of the closed
// preference simplex ranks it first, so membership is one interior-point LP
// on internal/lp's cell kernel: p is on the hull when the cell where
// S(p) ≥ S(q) for every other active q has Chebyshev slack ≥ −geom.Eps. The
// slack is a distance in the preference domain, the same at every record
// scale; it replaces a margin of geom.Eps in raw score units, which admitted
// records clearly inside the hull once scores were small. A competitor whose
// S(q) − S(p) has no gradient component above geom.Eps (a copy of p, or one
// shifted by a constant) ties with p unless it is a strict dominator.
package hull

import (
	"repro/internal/geom"
	"repro/internal/lp"
)

// OnionLayers peels up to k layers off the given records and returns the
// indices (into records) of each layer. Records in earlier layers are
// ignored when computing later ones. Fewer than k layers are returned when
// the records run out.
func OnionLayers(records [][]float64, k int) [][]int {
	n := len(records)
	if n == 0 {
		return nil
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	// The simplex's centroid starts every LP: a point inside the preference
	// domain, so only the competitors' half-spaces can cost pivots.
	dim := len(records[0]) - 1
	centroid := make([]float64, dim)
	for j := range centroid {
		centroid[j] = 1 / float64(dim+1)
	}
	ws := new(lp.Workspace)
	var layers [][]int
	for peeled := 0; len(layers) < k && peeled < n; {
		var cur []int
		for i := 0; i < n; i++ {
			if active[i] && onFirstQuadrantHull(ws, centroid, records, active, i) {
				cur = append(cur, i)
			}
		}
		if len(cur) == 0 {
			// Degenerate fallback (e.g., exact duplicates shadowing each
			// other): emit all remaining records as the final layer.
			for i := 0; i < n; i++ {
				if active[i] {
					cur = append(cur, i)
				}
			}
		}
		for _, i := range cur {
			active[i] = false
		}
		peeled += len(cur)
		layers = append(layers, cur)
	}
	return layers
}

// Flatten returns the union of the given layers.
func Flatten(layers [][]int) []int {
	var out []int
	for _, l := range layers {
		out = append(out, l...)
	}
	return out
}

// onFirstQuadrantHull reports whether records[i] achieves top-1 among the
// active records for some weight vector in the closed preference simplex:
// whether SimplexHalfspaces ∩ {S(p) ≥ S(q) : q active} has Chebyshev slack
// ≥ −geom.Eps.
func onFirstQuadrantHull(ws *lp.Workspace, centroid []float64, records [][]float64, active []bool, i int) bool {
	p := records[i]
	hs := geom.SimplexHalfspaces(len(centroid))
	for j, q := range records {
		if j == i || !active[j] {
			continue
		}
		if strictlyGreaterEverywhere(q, p) {
			return false // a strict dominator disqualifies p immediately
		}
		if h := geom.DualHalfspace(p, q); !h.IsTrivial() {
			hs = append(hs, h) // a trivial one would read a lead over Eps as an empty cell
		}
	}
	_, slack, _ := ws.InteriorPoint(len(centroid), hs, centroid)
	return slack >= -geom.Eps
}

// strictlyGreaterEverywhere reports q > p in every coordinate.
func strictlyGreaterEverywhere(q, p []float64) bool {
	for i := range q {
		if q[i] <= p[i]+geom.Eps {
			return false
		}
	}
	return true
}
