package core

import (
	"sort"
	"time"

	"repro/internal/arrangement"
	"repro/internal/bitset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/skyband"
)

// boundPasses is the interval-propagation depth used for the emit-time cell
// bounding boxes — the same depth the result cache's clipping fast paths use,
// so the precomputed box is exactly the one they would otherwise recompute.
const boundPasses = 24

// CellResult is one partition of the UTK2 output: a convex cell of the query
// region together with the exact top-k set (dataset ids, unordered) that
// holds anywhere inside it.
type CellResult struct {
	// Constraints bound the cell: the query region's half-spaces plus one
	// side per hyperplane on the cell's recursion path.
	Constraints []geom.Halfspace
	// Interior is a strictly interior point of the cell.
	Interior []float64
	// TopK are the dataset ids of the top-k set, sorted ascending.
	TopK []int
	// BoxLo and BoxHi, when non-nil, are a sound outer bounding box of the
	// cell, computed at emit time by interval propagation over Constraints.
	// Cell clipping (containment-based cache reuse) classifies cells against
	// a query region by this box before doing any LP work, so sliver cells
	// whose box already misses the region skip their clip LPs entirely.
	BoxLo, BoxHi []float64
}

// JAA answers the UTK2 query (Algorithm 3): it partitions r into cells, each
// annotated with the exact top-k set holding throughout the cell.
func JAA(t *rtree.Tree, r *geom.Region, k int, opts Options) ([]CellResult, *Stats, error) {
	if err := checkQuery(t, r, k); err != nil {
		return nil, nil, err
	}
	st := &Stats{}
	start := time.Now()
	g := skyband.BuildGraph(t, r, k)
	st.FilterDuration = time.Since(start)
	cells, err := JAAFromGraph(g, r, k, opts, st)
	if err != nil {
		return nil, nil, err
	}
	return cells, st, nil
}

// jaaState carries the partitioning being assembled: the finalized
// equal-to cells.
type jaaState struct {
	rf  *refiner
	out []CellResult
}

// JAAFromGraph runs JAA's refinement over a prebuilt r-dominance graph.
func JAAFromGraph(g *skyband.Graph, r *geom.Region, k int, opts Options, st *Stats) ([]CellResult, error) {
	if st == nil {
		st = &Stats{}
	}
	start := time.Now()
	defer func() {
		st.RefineDuration = time.Since(start)
		st.GraphBytes = g.Bytes()
		if pb := st.GraphBytes + st.Arrangement.PeakBytes; pb > st.PeakBytes {
			st.PeakBytes = pb
		}
	}()
	n := g.Len()
	st.Candidates = n
	if n == 0 {
		return nil, nil
	}
	rf := newRefiner(g, r, k, opts, st)
	defer rf.release()
	js := &jaaState{rf: rf}
	pivot := r.Pivot()
	if n <= k {
		// Every candidate is in every top-k set: R is a single partition.
		js.emit(r.Halfspaces(), pivot, rf.fullSet(), -1, rf.newSet())
	} else {
		// Initial anchor: the k-th scoring candidate at the pivot of the
		// region (Section 5.1), with its ancestors as the known prefix.
		anchor := rf.selectAnchor(pivot, rf.fullSet(), k)
		prefix := rf.cloneSet(g.Anc[anchor])
		ignore := rf.cloneSet(prefix)
		ignore.Or(g.Desc[anchor])
		js.partition(anchor, r.Halfspaces(), pivot, k-prefix.Count(), ignore, prefix, rf.newSet())
		if rf.stopped {
			return nil, ErrCanceled
		}
	}
	finishStats(st, js.out)
	return js.out, nil
}

func finishStats(st *Stats, cells []CellResult) {
	st.Partitions = len(cells)
	seen := map[string]bool{}
	for _, c := range cells {
		key := make([]byte, 0, len(c.TopK)*4)
		for _, id := range c.TopK {
			key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		seen[string(key)] = true
	}
	st.UniqueTopKSets = len(seen)
}

// selectAnchor returns the m-th ranking node among eligible at weight vector
// w (the anchor choosing strategy of Section 5.1: a record guaranteed to be
// the last member of the top-k set at w). m is clamped to the eligible
// population by the callers.
func (rf *refiner) selectAnchor(w []float64, eligible bitset.Set, m int) int {
	all := rf.anchors[:0]
	eligible.ForEach(func(q int) bool {
		all = append(all, anchorScored{q, geom.Score(rf.g.Records[q], w), rf.g.IDs[q]})
		return true
	})
	rf.anchors = all[:0]
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].id < all[b].id
	})
	return all[m-1].node
}

// emit finalizes an equal-to cell in the region's arrangement. The top-k set
// is prefix ∪ covering ∪ {anchor} (anchor < 0 when the whole candidate
// population fits within k). The cell's outer bounding box is computed here,
// once, so every later clip of the cell starts from it for free.
func (js *jaaState) emit(cell []geom.Halfspace, interior []float64, prefix bitset.Set, anchor int, covering bitset.Set) {
	mark := js.rf.sc.Mark()
	defer js.rf.sc.Rewind(mark)
	set := js.rf.cloneSet(prefix)
	set.Or(covering)
	if anchor >= 0 {
		set.Set(anchor)
	}
	ids := make([]int, 0, set.Count())
	set.ForEach(func(i int) bool {
		ids = append(ids, js.rf.g.IDs[i])
		return true
	})
	sort.Ints(ids)
	res := CellResult{Constraints: cell, Interior: interior, TopK: ids}
	if lo, hi, ok := geom.ConstraintBounds(js.rf.dim, cell, boundPasses); ok {
		res.BoxLo, res.BoxHi = lo, hi
	}
	js.out = append(js.out, res)
}

// partition is Algorithm 4: the verification-like process for anchor p in
// cell ρ. Invariants maintained at every call:
//
//   - |prefix| + quota = k, and every prefix member belongs to the top-k set
//     at every weight vector of the cell OR scores above p everywhere in it;
//   - every member of ignore \ prefix is either below p everywhere in the
//     cell (descendants, Lemma-1 casualties, non-covering inserted
//     competitors) or provably outside every top-k set of the cell
//     (excluded);
//   - excluded ⊆ ignore holds the provably-non-top-k records. Passing the
//     accumulated exclusions through anchor switches (a strict superset of
//     the pseudo-code's per-call exclusions, and equally safe — a record
//     outside every top-k set of a cell is outside every top-k set of its
//     sub-cells) gives the recursion a strictly decreasing measure.
func (js *jaaState) partition(p int, cell []geom.Halfspace, interior []float64, quota int, ignore, prefix, excluded bitset.Set) {
	rf := js.rf
	if rf.stop() {
		// The partial partitioning is unusable; the callers discard it.
		return
	}
	rf.st.PartitionCalls++
	mark := rf.sc.Mark()
	defer rf.sc.Rewind(mark)
	n := rf.g.Len()
	comp := rf.fullSet()
	comp.AndNot(ignore)
	comp.Clear(p)

	arr, err := arrangement.NewWith(rf.dim, cell, n, &rf.st.Arrangement, rf.ws, interior)
	if err != nil {
		return // defensive: cells passed down are full-dimensional
	}
	srcs := rf.sources(comp)
	inserted := rf.newSet()
	for _, q := range srcs {
		arr.Insert(q, rf.halfspace(q, p))
		inserted.Set(q)
	}

	for _, c := range arr.Cells() {
		cnt := c.Count()
		rank := cnt + 1
		switch {
		case rank > quota:
			// Greater-than partition: p (and its descendants) are outside
			// every top-k set here; restart with a fresh anchor. No Lemma-1
			// confirmation is needed (counts only grow).
			ex := rf.cloneSet(excluded)
			ex.Set(p)
			ex.Or(rf.g.Desc[p])
			eligible := rf.fullSet()
			eligible.AndNot(ex)
			if eligible.Count() <= rf.k {
				// Everyone still eligible fits in the top-k set.
				js.emit(c.Constraints(), c.Interior(), eligible, -1, rf.newSet())
				continue
			}
			na := rf.selectAnchor(c.Interior(), eligible, rf.k)
			nprefix := rf.cloneSet(rf.g.Anc[na])
			nprefix.AndNot(ex) // ancestors that are excluded can never count
			nignore := rf.cloneSet(nprefix)
			nignore.Or(rf.g.Desc[na])
			nignore.Or(ex)
			js.partition(na, c.Constraints(), c.Interior(), rf.k-nprefix.Count(), nignore, nprefix, ex)
		default:
			cannot := rf.cannotAffect(srcs, c, comp)
			remaining := rf.cloneSet(comp)
			remaining.AndNot(inserted)
			remaining.AndNot(cannot)
			covering := rf.cloneSet(inserted)
			covering.And(c.Covering())
			if remaining.Empty() {
				// Rank confirmed by Lemma 1.
				if rank == quota {
					// Equal-to partition: finalize.
					js.emit(c.Constraints(), c.Interior(), prefix, p, covering)
					continue
				}
				// Less-than partition: the k' = |prefix|+rank top records are
				// known; recurse for the remaining quota−rank slots with a
				// new anchor.
				nprefix := rf.cloneSet(prefix)
				nprefix.Or(covering)
				nprefix.Set(p)
				nquota := quota - rank
				eligible := rf.fullSet()
				eligible.AndNot(nprefix)
				eligible.AndNot(excluded)
				if eligible.Count() <= nquota {
					js.emit(c.Constraints(), c.Interior(), nprefix, -1, eligible)
					continue
				}
				na := rf.selectAnchor(c.Interior(), eligible, nquota)
				nignore := rf.cloneSet(nprefix)
				nignore.Or(rf.g.Desc[na])
				nignore.Or(excluded)
				js.partition(na, c.Constraints(), c.Interior(), nquota, nignore, nprefix, excluded)
				continue
			}
			// Unclassified: continue partitioning with the same anchor,
			// ignoring the processed and Lemma-1-disregarded competitors and
			// folding the covering ones into the prefix.
			nprefix := rf.cloneSet(prefix)
			nprefix.Or(covering)
			nignore := rf.cloneSet(ignore)
			nignore.Or(inserted)
			nignore.Or(cannot)
			js.partition(p, c.Constraints(), c.Interior(), quota-cnt, nignore, nprefix, excluded)
		}
	}
}
