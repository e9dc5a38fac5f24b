package skyband

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// scanSkyband computes the k-skyband of an explicit record set under a
// pluggable dominance test by a sort-and-sweep: records are visited in
// non-increasing key order (any dominator of a record must have a key at
// least as large), counting dominators among the kept members with early
// exit at k. It is the tree-free analogue of bbs for candidate sets that are
// already skyband-shaped, where MBB pruning cannot cut anything and the
// heap's constant factors dominate.
//
// Keys are packed into uint64s (order-preserving float bits with the low
// bits replaced by the record index) and sorted with slices.Sort, so the
// sweep allocates one word per record. The packing quantizes away the low
// log2(n) mantissa bits, which can only make near-tied records visit in the
// wrong relative order; that can inflate the kept set — never shrink it —
// because exclusion only ever relies on k genuine dominators. Callers that
// need the exact skyband (all do) run an exact pairwise pass over the kept
// members, as NewGraph does.
func scanSkyband(recs [][]float64, k int, key func([]float64) float64, dom func(p, q []float64) bool) []int {
	n := len(recs)
	if n == 0 {
		return nil
	}
	idxBits := uint(bits.Len(uint(n - 1)))
	idxMask := uint64(1)<<idxBits - 1
	keys := make([]uint64, n)
	for i, rec := range recs {
		b := math.Float64bits(key(rec))
		// Map to the total order of float64 values: flip all bits of
		// negatives, set the sign bit of non-negatives.
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		keys[i] = b&^idxMask | uint64(i)
	}
	slices.Sort(keys)
	members := make([]int, 0, 4*k)
	for j := n - 1; j >= 0; j-- {
		i := int(keys[j] & idxMask)
		cnt := 0
		for _, m := range members {
			if dom(recs[m], recs[i]) {
				cnt++
				if cnt >= k {
					break
				}
			}
		}
		if cnt < k {
			members = append(members, i)
		}
	}
	return members
}

// IntervalExcluded applies the k-th min-score interval rule over an explicit
// record set: excluded[i] is true when record i's maximum score over r lies
// strictly (beyond Eps) below the k-th largest minimum score over r — at
// least k records then outscore it everywhere in r (k genuine r-dominators),
// so it belongs to no top-k set anywhere in r and is outside the r-skyband.
// Returns nil when n ≤ k (nothing is excludable). This is the one definition
// of the rule; the region-aware filters and the decomposed JAA's subregion
// seeding all share it, so the Eps discipline cannot drift between them.
func IntervalExcluded(recs [][]float64, r *geom.Region, k int) []bool {
	n := len(recs)
	if n <= k {
		return nil
	}
	// θ needs only the minimum bound of every record; the maximum bound is
	// needed only for records whose minimum already sits below θ (for the
	// rest, smax ≥ smin ≥ θ settles the verdict without computing it).
	// MinScore/MaxScore accumulate bit-identically to ScoreRange, so the
	// excluded set matches the fused two-bound scan exactly while skipping
	// the MaxScore pass for the ≥ k records at or above the threshold.
	smin := make([]float64, n)
	for i, rec := range recs {
		smin[i] = r.MinScore(rec)
	}
	top := newKLargest[float64](k)
	top.offer(smin...)
	theta, _ := top.kth() // k-th largest minimum score (n > k values offered)
	excluded := make([]bool, n)
	for i := range recs {
		if smin[i]+geom.Eps < theta {
			excluded[i] = r.MaxScore(recs[i])+geom.Eps < theta
		}
	}
	return excluded
}

// ScanGraph computes the r-skyband of an explicit candidate superset (each
// candidate r-dominated by fewer than k others within the full dataset) and
// its r-dominance graph without an R-tree, in two passes:
//
//  1. Interval pruning (IntervalExcluded): a record whose maximum score over
//     R lies strictly below the k-th largest minimum score over R has k
//     genuine r-dominators, so it is excluded with O(1) work after an
//     O(n·d) range computation. For the narrow regions UTK targets, this
//     eliminates almost everything.
//  2. A sort-and-sweep over the survivors (see scanSkyband) followed by
//     NewGraph's exact pairwise pass.
//
// The resulting graph has exactly the nodes and edges BuildGraph derives
// over an index of the same records.
func ScanGraph(recs [][]float64, ids []int, r *geom.Region, k int) *Graph {
	return ScanGraphWith(nil, recs, ids, r, k)
}
