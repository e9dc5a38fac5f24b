package skyband

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// Blocks is the warm filter's layout of a count-ordered record set (the
// band as Dynamic.Band hands it over): the records as flat row-major float64
// rows, level by level — level l holds the records with l dominators, so a
// k-skyband is the rows of levels < k — and each level's rows grouped into
// blocks with their per-attribute [lo, hi] corners. The interval prefilter
// over a box visits only the blocks whose score bound can still reach the
// running k-th largest minimum score (see survivors): the paper's
// prune-a-group-by-its-bound, without an R-tree. Visited rows are scored
// exactly, in the accumulation order MinScore and MaxScore share, so the
// surviving set is bit-identical to the complement of IntervalExcluded's. A
// layout is immutable once built and is shared read-only by every query
// against its index epoch.
//
// The blocks are kept in preorder: a block is one leaf of rows, or the union
// of the blocks up to its next, so a sweep skips a whole subtree with one
// bound. NewBlocks makes one leaf per level; Split makes each level a kd
// tree.
type Blocks struct {
	d      int
	rows   []float64 // rows[i*d+j] = attribute j of the record at row i
	orig   []int32   // orig[i] = that record's index in the set
	blocks []block   // in preorder
	levels []int32   // level l is blocks [levels[l], levels[l+1])
	terms  []float64 // block i's bound terms at terms[i·(3d−1):] (see close)
	mag    float64   // the largest attribute magnitude
	// splitCost is the number of filtered rows that pay for Split; 0 when
	// there is nothing to split (see SplitCost).
	splitCost int
}

// block is rows [from, to) of a layout, and next the first block after its
// subtree: a leaf when that is the block right after it.
type block struct{ from, to, next int32 }

// leafRows is the most rows Split leaves in a block. On filter_anti's
// 7 775-row band (k = 10, σ = 0.005 boxes) the pass took about the same
// time at 8, 12 and 16 rows — fewer rows scored, more blocks bounded — and
// evaluated the fewest rows at 8.
const leafRows = 8

// NewBlocks builds the layout of recs (n records of equal dimensionality,
// counts[i] the dominator count of record i, non-decreasing; nil counts
// mean one level) with one block per count level. Splitting the levels
// further is left to Split, which the index epoch pays for only once its
// own scans have cost as much (see SplitCost).
func NewBlocks(recs [][]float64, counts []int) *Blocks {
	d := 0
	if len(recs) > 0 {
		d = len(recs[0])
	}
	b := &Blocks{d: d, rows: make([]float64, len(recs)*d), orig: make([]int32, len(recs)), levels: []int32{0}}
	from := 0
	for i, rec := range recs {
		copy(b.rows[i*d:][:d], rec)
		b.orig[i] = int32(i)
		if i+1 == len(recs) || counts != nil && counts[i+1] != counts[i] {
			if n := i + 1 - from; n > leafRows {
				// A kd split halves a level ⌈log₂(n_l/8)⌉ times, each
				// round a sort and a corner pass over the level. Measured
				// on a 2-core box: a split costs as much as ≈ 35 / 45 /
				// 75–120 unsplit passes over the 873 / 2 113 / 7 775-row
				// bands of update_mix / refine_miss / filter_anti, and the
				// factor 10 puts this rule at 40 / 53 / 71.
				b.splitCost += 10 * n * (bits.Len(uint(n-1)) - 3)
			}
			b.close(b.open(), from, i+1)
			b.levels = append(b.levels, int32(len(b.blocks)))
			from = i + 1
		}
	}
	return b
}

// open appends a block to be closed once its subtree's rows are in.
func (b *Blocks) open() int {
	b.blocks = append(b.blocks, block{})
	b.terms = append(b.terms, make([]float64, 3*b.d-1)...)
	return len(b.blocks) - 1
}

// close makes block at hold rows [from, to) and the blocks appended since
// it, and stores what bound needs from the rows' corners bl and bh: bh_last,
// bl_last, the differences bh_j − bh_last and bh_j − bl_last, and the
// widths bh_j − bl_j.
func (b *Blocks) close(at, from, to int) {
	d, m := b.d, b.d-1
	b.blocks[at] = block{int32(from), int32(to), int32(len(b.blocks))}
	t := b.terms[at*(3*m+2):][:3*m+2]
	for j := m; j >= 0; j-- { // the last attribute first: the differences need it
		lo, hi := b.rows[from*d+j], b.rows[from*d+j]
		for i := from + 1; i < to; i++ {
			// Branches, not min and max: a new extreme is rare, so they
			// are predicted, while min and max chain their NaN handling
			// through every row.
			if v := b.rows[i*d+j]; v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		b.mag = max(b.mag, -lo, hi)
		if j == m {
			t[0], t[1] = hi, lo
		} else {
			t[2+j], t[2+m+j], t[2+2*m+j] = hi-t[0], hi-t[1], hi-lo
		}
	}
}

// SplitCost is the number of rows the layout's filter passes should have
// evaluated before Split pays for itself, ≈ 10·Σ_l n_l·⌈log₂(n_l/8)⌉ over
// the count levels. It is 0 when there is nothing to split: the layout is
// split already, or no level holds more than leafRows rows.
func (b *Blocks) SplitCost() int { return b.splitCost }

// Split returns a new layout of the same records with every count level a
// kd tree whose leaves hold at most leafRows rows: median splits on a
// round-robin axis, sorted in place on a permutation of the level's rows.
// b is left untouched, so queries may read it while the split runs.
func (b *Blocks) Split() *Blocks {
	n := len(b.orig)
	s := &Blocks{d: b.d, rows: make([]float64, 0, len(b.rows)), orig: make([]int32, 0, n), levels: []int32{0}}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for _, l := range b.levels[:len(b.levels)-1] {
		s.kd(b, perm[b.blocks[l].from:b.blocks[l].to], 0)
		s.levels = append(s.levels, int32(len(s.blocks)))
	}
	return s
}

// kd appends src's rows idx to s as a subtree of blocks, halving on axis
// first.
func (s *Blocks) kd(src *Blocks, idx []int32, axis int) {
	d := src.d
	at, from := s.open(), len(s.orig)
	if len(idx) > leafRows {
		slices.SortFunc(idx, func(x, y int32) int { return cmp.Compare(src.rows[int(x)*d+axis], src.rows[int(y)*d+axis]) })
		// The upper half first: larger attributes score higher over boxes
		// in the simplex, so the sweep meets the top of each level early
		// and θ rises sooner (rows scored on filter_anti's band: 10.3 →
		// 8.1 %; refine_miss's: 18.3 → 13.9 %).
		s.kd(src, idx[len(idx)/2:], (axis+1)%d)
		s.kd(src, idx[:len(idx)/2], (axis+1)%d)
	} else {
		for _, i := range idx {
			s.rows = append(s.rows, src.rows[int(i)*d:int(i)*d+d]...)
			s.orig = append(s.orig, src.orig[i])
		}
	}
	s.close(at, from, len(s.orig))
}

// prefix returns the number of blocks holding the set's first n records,
// which must end on a level boundary (as every k-skyband does).
func (b *Blocks) prefix(n int) (nb int, ok bool) {
	for _, l := range b.levels {
		if int(l) == len(b.blocks) && n == len(b.orig) || int(l) < len(b.blocks) && int(b.blocks[l].from) == n {
			return int(l), true
		}
	}
	return 0, false
}

// bound is an upper bound, up to margin, on MaxScore over block i's rows
// within the box [lo, hi] (past: the box may reach past the simplex; neg:
// some lo_j < 0). For a weight vector w of the box a score
// Σ_j p_j·w_j + p_last·(1 − Σw) is largest over the block, whose corners
// are bl and bh, at p_j = bh_j where w_j ≥ 0 and at p_last = bh_last or
// bl_last by the sign of 1 − Σw — hence the kernel form
// last + Σ max(a·lo_j, a·hi_j) at bh, and for a box reaching past the simplex
// (Σ hi > 1) the larger of that and the form at bh with the last attribute
// at bl_last. NewBox admits lo_j ∈ [−Eps, 0), where p_j·w_j peaks at
// p_j = bl_j instead: at most (bh_j − bl_j)·(−lo_j) more.
func (b *Blocks) bound(i int, lo, hi []float64, past, neg bool) float64 {
	m := len(lo)
	t := b.terms[i*(3*m+2):][:3*m+2]
	a1, a2, wid := t[2:][:m], t[2+m:][:m], t[2+2*m:][:m]
	s := t[0]
	for j, l := range lo {
		s += max(a1[j]*l, a1[j]*hi[j])
	}
	if past {
		s2 := t[1]
		for j, l := range lo {
			s2 += max(a2[j]*l, a2[j]*hi[j])
		}
		s = max(s, s2)
	}
	if neg {
		for j, l := range lo {
			s += wid[j] * max(0, -l)
		}
	}
	return s
}

// margin bounds the rounding error between a row's computed MaxScore and
// its block's computed bound, for attributes of magnitude ≤ mag and box
// corners of magnitude ≤ w. A kernel form adds d terms — the last attribute
// and d−1 products of a difference and a corner — of total magnitude
// T = mag·(1 + 2(d−1)·w), each term through ≤ d+1 roundings, so a row's
// computed MaxScore is within γ_{d+1}·T of the exact one (γ_n = n·u/(1−n·u),
// u = 2⁻⁵³). The bound is the larger of two such forms (the max of rounded
// values is within the same error) and then the lo < 0 correction, d−1
// products of magnitude ≤ 2·mag·w each added in turn: every term of it
// passes ≤ 2d roundings, on a total ≤ 2T, so it is within γ_{2d}·2T. That is
// (5d+1)·u·T in all; 8(d+3)·u·mag·(1 + 2d·w) covers it with room for this
// expression's own rounding, and the 2⁻¹⁰⁰⁰ floor covers the absolute error
// of products that underflow. Exactly, MaxScore ≤ the bound over every row
// of a block (see bound), so computed MaxScore ≤ computed bound + margin.
func margin(d int, mag, w float64) float64 {
	return float64(d+3)*0x1p-50*mag*(1+2*float64(d)*w) + 0x1p-1000
}

// boxShape returns what bound and margin need to know of a box: the largest
// corner magnitude w, whether Σ hi may exceed 1 (the sum's rounding error is
// far below the 2⁻⁴⁰ allowed for it), and whether some lo_j < 0.
func boxShape(lo, hi []float64) (w float64, past, neg bool) {
	sumHi := 0.0
	for j, l := range lo {
		w = max(w, math.Abs(l), math.Abs(hi[j]))
		sumHi += hi[j]
		neg = neg || l < 0
	}
	return w, !(sumHi <= 1-0x1p-40), neg
}

// skippable reports whether a block whose bound is bnd can hold neither a
// survivor nor a record ranking in the top k by minimum score, with θ the
// running k-th largest minimum: each of its rows has MaxScore + Eps < θ. A
// NaN or infinite bound never qualifies.
func skippable(bnd, margin, theta float64) bool { return bnd+margin+geom.Eps < theta }

// keptRow is a visited row that could still survive: its record index and
// its exact maximum score.
type keptRow struct {
	i  int32
	mx float64
}

// survivors returns the indices, ascending, of the records among the set's
// first n that IntervalExcluded does not exclude over the box r —
// bit-identical verdicts — and the number of rows it evaluated; ok is false
// when n is not a level boundary, or when the scores could overflow (the
// float64 path serves those). Needs n > k. When skipped is non-nil, the
// blocks it skipped are appended to it.
//
// One preorder sweep over the prefix's blocks skips every block (and its
// subtree) whose bound cannot reach the running θ, the k-th largest
// MinScore of the rows scored so far, and scores the rows of the leaves it
// reaches: the minimum feeds the running k-th largest, the maximum keeps
// the row while it reaches θ. The running θ only rises and is the k-th
// largest of a subset of the minima, so it never exceeds the final one: a
// skipped block's rows have MinScore ≤ MaxScore < θ − Eps — excluded, and
// too low to be among the k largest minima, so θ comes out exact. The final
// θ then decides the kept rows. With every score finite, MinScore ≤
// MaxScore, so a row is excluded iff its MaxScore + Eps < θ.
func (b *Blocks) survivors(r *geom.Region, k, n int, skipped *[]int32) (surv []int, rows int, ok bool) {
	nb, ok := b.prefix(n)
	lo, hi := r.Bounds()
	w, past, neg := boxShape(lo, hi)
	// Every intermediate of a kernel form is at most mag·(1 + 2d·w): below
	// 2¹⁰⁰⁰ nothing overflows and no score is NaN (a NaN w fails too).
	if !ok || !(b.mag*(1+2*float64(b.d)*w) < 0x1p1000) {
		return nil, 0, false
	}
	mg := margin(b.d, b.mag, w)
	d, m := b.d, len(lo)
	hi = hi[:m]
	top, theta, kept := newKLargest(k), math.Inf(-1), make([]keptRow, 0, 4*k)
	for i := 0; i < nb; i++ {
		bl := b.blocks[i]
		if skippable(b.bound(i, lo, hi, past, neg), mg, theta) {
			if skipped != nil {
				*skipped = append(*skipped, int32(i))
			}
			i = int(bl.next) - 1
			continue
		}
		if int(bl.next) != i+1 {
			continue
		}
		// A leaf: score its rows exactly, the minimum and maximum in the
		// accumulation order MinScore and MaxScore share (the last
		// attribute, then dimensions 0…d−2). Of the two corner products it
		// takes the smaller and the larger rather than branching on the
		// sign of the difference, which is random per row: with lo < hi
		// and no NaN that is MinScore's and MaxScore's choice, up to the
		// sign of a zero, which no comparison sees.
		rows += int(bl.to - bl.from)
		for ri := int(bl.from); ri < int(bl.to); ri++ {
			row := b.rows[ri*d:][:d]
			last := row[m]
			mn, mx := last, last
			for j, l := range lo {
				a := row[j] - last
				t1, t2 := a*l, a*hi[j]
				mn += min(t1, t2)
				mx += max(t1, t2)
			}
			if mn > theta {
				top.offer(mn)
				if v, full := top.kth(); full {
					theta = v
				}
			}
			if mx+geom.Eps >= theta {
				if len(kept) == cap(kept) { // θ has risen since most of them came in
					kept = slices.DeleteFunc(kept, func(kr keptRow) bool { return kr.mx+geom.Eps < theta })
				}
				kept = append(kept, keptRow{b.orig[ri], mx})
			}
		}
	}

	surv = make([]int, 0, len(kept))
	for _, kr := range kept {
		if kr.mx+geom.Eps >= theta {
			surv = append(surv, int(kr.i))
		}
	}
	slices.Sort(surv)
	return surv, rows, true
}

// ScanGraphWith is ScanGraph with an optional prebuilt block layout of a
// record set of which recs, ids are a level-aligned prefix, and also returns
// the number of layout rows the prefilter evaluated. When the layout is
// non-nil and the region is a box the pass accepts, the interval prefilter
// runs over the layout's blocks; in every other case (and in every
// downstream refinement step) the float64 path over recs is used unchanged,
// and the count is 0. Both paths produce the identical graph.
func ScanGraphWith(b *Blocks, recs [][]float64, ids []int, r *geom.Region, k int) (g *Graph, rows int) {
	survRecs, survIDs := recs, ids
	if len(recs) > k {
		surv, ok := []int(nil), false
		if b != nil && r.IsBox() {
			surv, rows, ok = b.survivors(r, k, len(recs), nil)
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
	mrecs, mids := make([][]float64, len(keep)), make([]int, len(keep))
	for i, idx := range keep {
		mrecs[i], mids[i] = survRecs[idx], survIDs[idx]
	}
	return NewGraph(mrecs, mids, r, k), rows
}
