package skyband

import (
	"math"

	"repro/internal/geom"
)

// Columns is a flat float32 column-major copy of a record set, built once
// per index epoch and shared read-only by every query against that epoch.
// The interval prefilter's score-range computation — an O(n·d) streaming
// min/max of a linear functional — runs over these columns instead of
// chasing [][]float64 row pointers through r.ScoreRange per record: half the
// memory traffic, sequential access, and a branch-light inner loop.
//
// The kernel stays exact despite the narrower type: float32 score bounds are
// widened by a sound rounding slack, records whose verdict the slack could
// flip are re-evaluated in float64 with the same accumulation order as
// ScoreRange, and everything else is provably on one side. The excluded set
// is therefore bit-identical to IntervalExcluded's; see intervalExcludedCols.
type Columns struct {
	n, d int
	cols []float32 // cols[j*n+i] = record i, attribute j
	// scale bounds the magnitude of every intermediate of the float32
	// accumulation; the per-record rounding slack is derived from it.
	scale float64
}

// NewColumns builds the columnar layout of recs (n records of equal
// dimensionality d). Returns nil for an empty set.
func NewColumns(recs [][]float64) *Columns {
	n := len(recs)
	if n == 0 {
		return nil
	}
	d := len(recs[0])
	c := &Columns{n: n, d: d, cols: make([]float32, n*d)}
	maxAbs := 1.0
	for i, rec := range recs {
		for j, v := range rec {
			c.cols[j*n+i] = float32(v)
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	c.scale = maxAbs
	return c
}

// Len returns the number of records in the layout.
func (c *Columns) Len() int { return c.n }

// slack returns a sound absolute bound on the error of the float32 score
// accumulation over a box with the given coordinate magnitude bound: d+3
// rounding steps (conversion, difference, product, running sum), each with
// relative error ≤ 2⁻²³ on intermediates of magnitude ≤ 2·scale·(1+boxMag),
// doubled for margin. Soundness, not tightness, is what correctness needs —
// a looser slack only sends more records to the exact float64 recheck.
func (c *Columns) slack(boxMag float64) float64 {
	const eps32 = 1.0 / (1 << 23)
	return 4 * eps32 * float64(c.d+3) * 2 * c.scale * (1 + boxMag)
}

// scoreBounds32 streams the box score-range kernel over the columns: on
// return smin[i]/smax[i] hold the float32 minimum/maximum score of record i
// over [lo, hi]. Column-major order makes the inner loop a contiguous
// fused-multiply pass per dimension.
func (c *Columns) scoreBounds32(lo, hi []float64, smin, smax []float32) {
	n := c.n
	last := c.cols[(c.d-1)*n : c.d*n]
	copy(smin, last)
	copy(smax, last)
	for j := 0; j < c.d-1; j++ {
		lo32, hi32 := float32(lo[j]), float32(hi[j])
		col := c.cols[j*n : (j+1)*n]
		for i, v := range col {
			a := v - last[i]
			t1, t2 := a*lo32, a*hi32
			if t1 <= t2 {
				smin[i] += t1
				smax[i] += t2
			} else {
				smin[i] += t2
				smax[i] += t1
			}
		}
	}
}

// intervalExcludedCols is IntervalExcluded computed through the columnar
// kernel, with verdicts bit-identical to the float64 scan:
//
//  1. The float32 kernel yields per-record score bounds, sound within ±slack.
//  2. θ — the k-th largest exact minimum score — is found by computing exact
//     float64 minima only for records whose float32 minimum is within 2·slack
//     of the k-th largest float32 minimum (every record that could rank in
//     the exact top k by minimum is in that band, so the k-th largest exact
//     value over the band equals the one over all records).
//  3. A record is excluded iff smax + Eps < θ on exact values; the float32
//     bound decides records farther than slack from the threshold, and the
//     few in the uncertain band are re-evaluated with MaxScore (bit-identical
//     accumulation to ScoreRange).
//
// recs must be the row view of the same records the columns were built from.
func intervalExcludedCols(c *Columns, recs [][]float64, r *geom.Region, k int) []bool {
	n := len(recs)
	if n <= k {
		return nil
	}
	lo, hi := r.Bounds()
	boxMag := 0.0
	for i := range lo {
		boxMag = math.Max(boxMag, math.Max(math.Abs(lo[i]), math.Abs(hi[i])))
	}
	slack := c.slack(boxMag)

	smin := make([]float32, n)
	smax := make([]float32, n)
	c.scoreBounds32(lo, hi, smin, smax)

	// Exact θ from the candidate band around the k-th largest float32 min.
	top32 := newKLargest[float32](k)
	top32.offer(smin...)
	kth32, _ := top32.kth() // n > k values offered
	cut := float64(kth32) - 2*slack
	top := newKLargest[float64](k)
	for i := range smin {
		if float64(smin[i]) >= cut {
			top.offer(r.MinScore(recs[i]))
		}
	}
	theta, _ := top.kth() // k-th largest exact minimum score (the band holds ≥ k)

	excluded := make([]bool, n)
	for i := range excluded {
		mx := float64(smax[i])
		switch {
		case mx+slack+geom.Eps < theta:
			excluded[i] = true
		case mx-slack+geom.Eps >= theta:
			// not excluded
		default:
			excluded[i] = r.MaxScore(recs[i])+geom.Eps < theta
		}
	}
	return excluded
}

// ScanGraphWith is ScanGraph with an optional prebuilt columnar layout of
// recs. When cols is non-nil, matches the record set, and the region is a
// box, the interval prefilter runs through the float32 kernel; in every
// other case (and in every downstream refinement step) the float64 path is
// used unchanged. Both paths produce the identical graph.
func ScanGraphWith(cols *Columns, recs [][]float64, ids []int, r *geom.Region, k int) *Graph {
	survRecs := recs
	survIDs := ids
	var excluded []bool
	if cols != nil && cols.n == len(recs) && r.IsBox() {
		excluded = intervalExcludedCols(cols, recs, r, k)
	} else {
		excluded = IntervalExcluded(recs, r, k)
	}
	if excluded != nil {
		survRecs = make([][]float64, 0, 4*k)
		survIDs = make([]int, 0, 4*k)
		for i := range recs {
			if !excluded[i] {
				survRecs = append(survRecs, recs[i])
				survIDs = append(survIDs, ids[i])
			}
		}
	}
	pivot := r.Pivot()
	key := func(p []float64) float64 { return geom.Score(p, pivot) }
	dom := func(p, q []float64) bool { return RDominates(p, q, r) }
	keep := scanSkyband(survRecs, k, key, dom)
	mrecs := make([][]float64, len(keep))
	mids := make([]int, len(keep))
	for i, idx := range keep {
		mrecs[i] = survRecs[idx]
		mids[i] = survIDs[idx]
	}
	return NewGraph(mrecs, mids, r, k)
}
