// Package skyband implements the filtering machinery of the paper: the
// classic BBS k-skyband (Papadias et al.), the r-dominance relation of
// Definition 1, the r-skyband of Definition 2 computed by a pivot-guided BBS
// variant, and the r-dominance graph G of Section 4.1 with the
// ancestor/descendant set algebra the refinement steps of RSA and JAA need.
//
// Dynamic keeps the one region-independent superset the filter needs — the
// classic k-skyband — exact under inserts and deletes. Its entry set is the
// band (dominator count < k, exact counts) plus the fence (the skyline of
// the other records); every remaining record stores the id of one fence
// entry that dominates it. All dominators of an entry are band entries, a
// covered record dominates no entry, and the entry set is a function of the
// live records alone, so every update is a few searches of the band or the
// fence, plus a fence search for each record a departing fence entry leaves
// uncovered (see Dynamic).
//
// Construction has one path: RestoreDynamic builds the structure from live
// records alone (NewDynamic numbers its records and calls it; CountBand
// reads the band NewDynamic builds), and no band or count is ever read back
// from a state. It is two strongest-first grid passes instead of all-pairs
// counting: the band is counted, and the fence found, against a grid of what
// each pass has admitted so far, and a probe skips or counts whole cells by
// their corners (see gridPass). State lists the records in that order, so a
// restore skips the sort. The structure keeps the two grids for its whole
// life, and every search an update makes is a visit of one of them (see
// grid).
package skyband

import (
	"repro/internal/geom"
	"repro/internal/rtree"
)

// RDominates reports whether record p r-dominates record q with respect to
// region R: S(p) ≥ S(q) for every weight vector in R, with strict inequality
// somewhere in R. Records with identical scores across the whole preference
// domain do not r-dominate each other.
func RDominates(p, q []float64, r *geom.Region) bool {
	// For a full-dimensional R, containment of the dual half-space implies
	// strict inequality at interior points, so Definition 1 reduces to the
	// allocation-free region test (identical verdicts to classifying
	// DualHalfspace(p, q), which this hot path used to materialize).
	return r.DominatesOver(p, q)
}

// bbsItem is a heap entry of the branch-and-bound search: either an R-tree
// node or a concrete record. For node items rec holds the MBB top corner the
// parent entry already carries (Entry.Max covers the whole subtree), so the
// pop path never recomputes corners from child entries.
type bbsItem struct {
	key  float64
	node *rtree.Node
	rec  []float64
	id   int
}

// bbsHeap is a concretely-typed max-heap ordered by key. container/heap was
// retired here deliberately: its interface{}-based Push/Pop box every bbsItem
// (two heap allocations per visited entry), which profiling showed was the
// single largest allocation source of a cold query.
type bbsHeap []bbsItem

func (h *bbsHeap) push(it bbsItem) {
	a := append(*h, it)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].key >= a[i].key {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
	*h = a
}

func (h *bbsHeap) pop() bbsItem {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = bbsItem{} // drop node/rec pointers so the backing array doesn't pin them
	a = a[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && a[r].key > a[l].key {
			c = r
		}
		if a[i].key >= a[c].key {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// member is an accepted skyband record during BBS, or a band entry in one of
// Dynamic's count levels.
type member struct {
	rec []float64
	id  int
}

// intervalBound is the BBS-side analogue of ScanGraph's interval prefilter:
// it maintains θ, the k-th largest minimum score over R among the members
// accepted so far. Any record (or MBB top corner, which score-dominates its
// subtree) whose maximum score over R lies strictly below θ has at least k
// accepted members outscoring it everywhere in R — k genuine r-dominators —
// so it is pruned with one O(d) range computation instead of up to k
// dominance tests. θ only grows as members accrue, so a verdict taken at any
// point stays sound.
type intervalBound struct {
	r    *geom.Region
	mins kLargest // member min-scores; θ once full
}

// prune reports whether the point (a record, or a node's top corner) is
// provably outside the r-skyband.
func (ib *intervalBound) prune(p []float64) bool {
	theta, ok := ib.mins.kth()
	return ok && ib.r.MaxScore(p)+geom.Eps < theta
}

// accept folds an accepted member's minimum score into the bound.
func (ib *intervalBound) accept(rec []float64) { ib.mins.offer(ib.r.MinScore(rec)) }

// kLargest tracks the k ≥ 1 largest values offered so far (a multiset: ties
// each take a slot) in an ascending buffer of capacity k, so the k-th order
// statistic of a stream costs no n-sized copy and no sort. k is a top-k depth
// (≤ MaxK), so an insertion is a short shift and the common case — a value
// at or below the current k-th largest — is one comparison.
type kLargest []float64

func newKLargest(k int) kLargest { return make(kLargest, 0, k) }

// kth returns the k-th largest value offered; ok is false until k values
// have been.
func (a kLargest) kth() (v float64, ok bool) {
	if len(a) < cap(a) {
		return 0, false
	}
	return a[0], true
}

// offer folds values into the tracker. The loop lives here (callers pass
// whole slices) so the one-comparison reject path runs without a call per
// value.
func (a *kLargest) offer(vs ...float64) {
	s := *a
	for _, v := range vs {
		if len(s) < cap(s) {
			s = append(s, v)
			i := len(s) - 1
			for ; i > 0 && s[i-1] > v; i-- {
				s[i] = s[i-1]
			}
			s[i] = v
		} else if v > s[0] {
			i := 1
			for ; i < len(s) && s[i] < v; i++ {
				s[i-1] = s[i]
			}
			s[i-1] = v
		}
	}
	*a = s
}

// bbs runs the branch-and-bound skyline paradigm with a pluggable monotone
// key and dominance test. key must never increase along any root-to-record
// path (it is evaluated on MBB top corners, which coordinate-wise dominate
// their contents), which guarantees that a record popped later cannot
// dominate one popped earlier. ib, when non-nil, adds the interval prefilter
// on top of the dominance test (region-aware searches only).
func bbs(t *rtree.Tree, k int, key func(point []float64) float64, dominates func(p, q []float64) bool, ib *intervalBound) []member {
	var h bbsHeap
	pushNode := func(n *rtree.Node) {
		for _, e := range n.Entries() {
			if n.Leaf() {
				h.push(bbsItem{key: key(e.Min), rec: e.Min, id: e.RecordID})
			} else {
				h.push(bbsItem{key: key(e.Max), node: e.Child, rec: e.Max})
			}
		}
	}
	pushNode(t.Root())
	var members []member
	dominatedAtLeastK := func(p []float64) bool {
		cnt := 0
		for _, m := range members {
			if dominates(m.rec, p) {
				cnt++
				if cnt >= k {
					return true
				}
			}
		}
		return false
	}
	for len(h) > 0 {
		it := h.pop()
		if it.node != nil {
			corner := it.rec // the parent entry's Max: covers the subtree
			if ib != nil && ib.prune(corner) {
				continue
			}
			if dominatedAtLeastK(corner) {
				continue
			}
			pushNode(it.node)
			continue
		}
		if ib != nil && ib.prune(it.rec) {
			continue
		}
		if dominatedAtLeastK(it.rec) {
			continue
		}
		members = append(members, member{rec: it.rec, id: it.id})
		if ib != nil {
			ib.accept(it.rec)
		}
	}
	return members
}

// KSkyband returns the ids of the records dominated by fewer than k others,
// computed by BBS over the R-tree. The visiting key is the coordinate sum of
// MBB top corners, a monotone metric equivalent to the distance-to-top-corner
// order of the original algorithm.
func KSkyband(t *rtree.Tree, k int) []int {
	key := func(p []float64) float64 {
		s := 0.0
		for _, v := range p {
			s += v
		}
		return s
	}
	ms := bbs(t, k, key, geom.Dominates, nil)
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.id
	}
	return out
}

// RSkyband returns the ids of the records r-dominated by fewer than k
// others, per Definition 2. The BBS visiting key is the score under the
// pivot vector of R, which guides the search to likely r-skyband members
// first (Section 4.1). A post-pass over the produced superset removes
// records whose exact r-dominance count within the superset reaches k; the
// transitivity of r-dominance makes counting within the superset exact.
func RSkyband(t *rtree.Tree, r *geom.Region, k int) []int {
	pivot := r.Pivot()
	key := func(p []float64) float64 { return geom.Score(p, pivot) }
	dom := func(p, q []float64) bool { return RDominates(p, q, r) }
	ms := bbs(t, k, key, dom, &intervalBound{r: r, mins: newKLargest(k)})
	// Exact post-pass: pairwise counts inside the BBS superset.
	keep := make([]int, 0, len(ms))
	for i, mi := range ms {
		cnt := 0
		for j, mj := range ms {
			if i == j {
				continue
			}
			if RDominates(mj.rec, mi.rec, r) {
				cnt++
				if cnt >= k {
					break
				}
			}
		}
		if cnt < k {
			keep = append(keep, mi.id)
		}
	}
	return keep
}
