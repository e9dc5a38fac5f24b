package skyband

import (
	"math"

	"repro/internal/geom"
)

// Columns is a flat float32 copy of a record set (row-major: a record's
// attributes are adjacent), built once per index epoch and shared read-only by
// every query against that epoch. The interval prefilter over a box runs on it
// as one streaming pass (see survivors) instead of chasing [][]float64 row
// pointers through MinScore and MaxScore per record: half the memory traffic,
// sequential access, and an inner loop without a data-dependent branch.
//
// The kernel stays exact despite the narrower type: float32 score bounds are
// widened by a sound rounding slack, records whose verdict the slack could
// flip are re-evaluated in float64 with the same accumulation order as
// ScoreRange, and everything else is provably on one side. The surviving set
// is therefore bit-identical to the complement of IntervalExcluded's.
type Columns struct {
	n, d int
	rows []float32 // rows[i*d+j] = record i, attribute j
	// scale bounds the magnitude of every attribute (and is at least 1); the
	// rounding slack and the float32-range guard are derived from it.
	scale float64
}

// NewColumns builds the float32 layout of recs (n records of equal
// dimensionality d). Returns nil — callers then take the float64 path — for
// an empty set and for attributes too large for float32 (see fits).
func NewColumns(recs [][]float64) *Columns {
	n := len(recs)
	if n == 0 {
		return nil
	}
	d := len(recs[0])
	c := &Columns{n: n, d: d, rows: make([]float32, n*d), scale: 1}
	for i, rec := range recs {
		for j, v := range rec {
			c.rows[i*d+j] = float32(v)
			if a := math.Abs(v); a > c.scale {
				c.scale = a
			}
		}
	}
	if !c.fits(0) {
		return nil
	}
	return c
}

// Prefix returns a view of the layout's first n records (nil for a nil
// layout). It shares the rows and the scale: a bound on the whole set's
// magnitudes bounds every prefix, so the slack stays sound — only looser when
// the rest of the set holds larger attributes.
func (c *Columns) Prefix(n int) *Columns {
	if c == nil || n == c.n {
		return c
	}
	return &Columns{n: n, d: c.d, rows: c.rows[:n*c.d], scale: c.scale}
}

// slack returns a sound absolute bound on the error of the float32 score
// accumulation over a box with the given coordinate magnitude bound: d+3
// rounding steps (conversion, difference, product, running sum), each with
// relative error ≤ 2⁻²³ on intermediates of magnitude ≤ 2·scale·(1+boxMag),
// doubled for margin (which also absorbs the float64 rounding of the
// comparisons made with it). Soundness, not tightness, is what correctness
// needs — a looser slack only sends more records to the exact float64 recheck.
func (c *Columns) slack(boxMag float64) float64 {
	const eps32 = 1.0 / (1 << 23)
	return 4 * eps32 * float64(c.d+3) * 2 * c.scale * (1 + boxMag)
}

// fits reports whether the accumulation stays finite in float32 over such a
// box: a running sum of d terms of magnitude ≤ 2·scale·(1+boxMag) must stay
// under MaxFloat32/2 (the factor 2 covers the rounding). Beyond that cutoff —
// attributes or box corners near 1e37, or a NaN corner — a float32 bound can
// be ±Inf or NaN (Inf − Inf, Inf·0), slack says nothing about it, and the
// kernel must not run: a NaN compares false with everything, so it would sit
// in the k-th-largest buffer forever and θ would be taken from no record.
func (c *Columns) fits(boxMag float64) bool {
	return float64(c.d)*2*c.scale*(1+boxMag) < math.MaxFloat32/2
}

// bounded is a record the streaming pass kept, with its float32 score bounds.
type bounded struct {
	i      int
	mn, mx float32
}

// stream is the one pass over the layout. Per record it accumulates the
// float32 minimum and maximum score over [lo, hi] in registers (the last
// attribute, then dimensions 0…d−2, taking the smaller/larger of the two
// corner products with min/max — no branch on the sign of rec[j] − rec[d−1],
// which is random per record), feeds the minimum to a running k-th largest,
// and keeps the record only when mx + 2·slack + Eps reaches that running
// value. Returns the kept records in index order and the final k-th largest
// float32 minimum (n > k records, all bounds finite: see fits).
func (c *Columns) stream(lo, hi []float64, k int, slack float64) ([]bounded, float32) {
	n, d := c.n, c.d
	w := make([]float32, 2*(d-1))
	lo32 := w[:d-1]
	hi32 := w[d-1:][:len(lo32)] // provably as long as lo32: no bounds check on hi32[j]
	for j := range lo32 {
		lo32[j], hi32[j] = float32(lo[j]), float32(hi[j])
	}
	margin := 2*slack + geom.Eps
	top := newKLargest[float32](k)
	kth := float32(math.Inf(-1)) // running k-th largest minimum; −Inf until k records are in
	keepFrom := math.Inf(-1)     // kth − margin
	kept := make([]bounded, 0, 16*k)
	for i := 0; i < n; i++ {
		row := c.rows[i*d : i*d+d]
		last := row[len(lo32)]
		row = row[:len(lo32)]
		mn, mx := last, last
		for j, l := range lo32 {
			a := row[j] - last
			t1, t2 := a*l, a*hi32[j]
			mn += min(t1, t2)
			mx += max(t1, t2)
		}
		if mn > kth {
			top.offer(mn)
			if v, full := top.kth(); full {
				kth, keepFrom = v, float64(v)-margin
			}
		}
		if float64(mx) >= keepFrom {
			kept = append(kept, bounded{i, mn, mx})
		}
	}
	return kept, kth
}

// survivors returns the indices, ascending, of the records IntervalExcluded
// does not exclude over the box r — bit-identical verdicts — or ok = false
// when the box is too large for the float32 kernel (see fits). Needs n > k;
// recs must be the records the layout was built from.
//
//  1. stream yields float32 bounds, sound within ±slack, for every record it
//     keeps, and kth32, the k-th largest float32 minimum over all records.
//  2. θ — the k-th largest exact minimum score — is the k-th largest exact
//     float64 minimum over the band mn ≥ kth32 − 2·slack: every record that
//     could rank in the exact top k by minimum is in that band.
//  3. A record is excluded iff its exact maximum + Eps < θ; the float32 bound
//     decides records farther than slack from θ, and the few in between are
//     re-evaluated with MaxScore (bit-identical accumulation to ScoreRange).
//
// What stream drops needs neither step. Its running k-th largest only rises
// and ends at kth32, and |kth32 − θ| ≤ slack, so a dropped record has
// mx + 2·slack + Eps < kth32 ≤ θ + slack: step 3's first case, excluded. And
// mn ≤ mx puts it below the band of step 2, so θ is taken from the same
// records. Everything else is kept and judged exactly as a three-pass version
// over all n records would judge it.
func (c *Columns) survivors(recs [][]float64, r *geom.Region, k int) (surv []int, ok bool) {
	lo, hi := r.Bounds()
	boxMag := 0.0
	for i := range lo {
		boxMag = math.Max(boxMag, math.Max(math.Abs(lo[i]), math.Abs(hi[i])))
	}
	if !c.fits(boxMag) {
		return nil, false
	}
	slack := c.slack(boxMag)
	kept, kth32 := c.stream(lo, hi, k, slack)

	cut := float64(kth32) - 2*slack
	top := newKLargest[float64](k)
	for _, b := range kept {
		if float64(b.mn) >= cut {
			top.offer(r.MinScore(recs[b.i]))
		}
	}
	theta, _ := top.kth() // the band holds ≥ k records

	surv = make([]int, 0, 4*k)
	for _, b := range kept {
		mx := float64(b.mx)
		if mx+slack+geom.Eps < theta {
			continue
		}
		if mx-slack+geom.Eps >= theta || !(r.MaxScore(recs[b.i])+geom.Eps < theta) {
			surv = append(surv, b.i)
		}
	}
	return surv, true
}

// ScanGraphWith is ScanGraph with an optional prebuilt float32 layout of
// recs. When cols is non-nil, matches the record set, and the region is a
// box the kernel accepts, the interval prefilter runs through the float32
// kernel; in every other case (and in every downstream refinement step) the
// float64 path is used unchanged. Both paths produce the identical graph.
func ScanGraphWith(cols *Columns, recs [][]float64, ids []int, r *geom.Region, k int) *Graph {
	survRecs, survIDs := recs, ids
	if len(recs) > k {
		var surv []int
		ok := false
		if cols != nil && cols.n == len(recs) && r.IsBox() {
			surv, ok = cols.survivors(recs, r, k)
		}
		if !ok {
			for i, out := range IntervalExcluded(recs, r, k) {
				if !out {
					surv = append(surv, i)
				}
			}
		}
		survRecs = make([][]float64, len(surv))
		survIDs = make([]int, len(surv))
		for j, i := range surv {
			survRecs[j], survIDs[j] = recs[i], ids[i]
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
