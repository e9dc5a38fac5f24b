package core

import (
	"context"
	"math"
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

// jaaOversplit is how many subregions the parallel decomposition carves per
// requested worker. Oversplitting balances load (pieces differ wildly in
// refinement cost) and compounds with a second effect: the arrangement
// recursion is superlinear in region extent, so many small regions cost less
// total refinement work than few large ones — measurably so even on a single
// core. Past roughly this factor the per-piece fixed costs (anchor selection
// over the whole candidate set, seam-cell duplication) eat the gains.
const jaaOversplit = 4

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

// jaaState carries one region's arrangement being assembled: the finalized
// equal-to cells.
type jaaState struct {
	rf  *refiner
	out []CellResult
}

// JAAFromGraph runs JAA's refinement over a prebuilt r-dominance graph. With
// Options.Workers > 1 the query region is decomposed into that many
// subregions, an independent JAA runs per subregion on the executor, and the
// partial partitionings are stitched — see Options.Workers for the exactness
// argument.
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
	opts.Workers = opts.effectiveWorkers()
	n := g.Len()
	st.Candidates = n
	st.EffectiveWorkers = 1
	if n == 0 {
		return nil, nil
	}
	if n <= k {
		// Every candidate is in every top-k set: R is a single partition, and
		// no decomposition could be cheaper.
		rf := newRefiner(g, r, k, opts, st)
		defer rf.release()
		js := &jaaState{rf: rf}
		js.emit(r.Halfspaces(), r.Pivot(), rf.fullSet(), -1, rf.newSet())
		finishStats(st, js.out)
		return js.out, nil
	}
	if opts.Workers > 1 {
		return jaaParallel(g, r, k, opts, st)
	}
	out, stopped := jaaRegion(g, r, k, opts, st)
	if stopped {
		return nil, ErrCanceled
	}
	finishStats(st, out)
	return out, nil
}

// jaaRegion runs the sequential JAA refinement over one region (the full
// query region, or one subregion of the parallel decomposition), returning
// the emitted cells and whether the run was canceled. The caller guarantees
// g.Len() > k. The region must be contained in the one the graph was built
// for: the graph's ancestor/descendant sets are then sound (a record
// outscoring another everywhere in R does so everywhere in any subset of R),
// which is all the refinement relies on.
//
// The run is seeded with the interval exclusion: a candidate whose maximum
// score over the region lies strictly below the k-th largest minimum score
// has k candidates outscoring it everywhere here, so it is outside every
// top-k set of the region — exactly the invariant the recursion's own
// `excluded` set encodes, entering through the same re-anchor pattern (the
// seed is a no-op for the full query region, whose graph is already the
// exact r-skyband, but prunes genuinely on the narrower subregions of a
// decomposed run).
func jaaRegion(g *skyband.Graph, r *geom.Region, k int, opts Options, st *Stats) ([]CellResult, bool) {
	rf := newRefiner(g, r, k, opts, st)
	defer rf.release()
	js := &jaaState{rf: rf}

	pivot := r.Pivot()
	excluded := rf.intervalExcluded(r)
	eligible := rf.fullSet()
	eligible.AndNot(excluded)
	if eligible.Count() <= k {
		// Every non-excluded candidate is in every top-k set of the region:
		// one cell, same emit shape as the recursion's exhausted-eligible
		// branch.
		js.emit(r.Halfspaces(), pivot, eligible, -1, rf.newSet())
		return js.out, rf.stopped
	}

	// Initial anchor: the k-th scoring candidate at the pivot of the region
	// (Section 5.1), with its non-excluded ancestors as the known prefix.
	anchor := rf.selectAnchor(pivot, eligible, k)
	prefix := rf.cloneSet(g.Anc[anchor])
	prefix.AndNot(excluded) // excluded ancestors can never count toward k
	ignore := rf.cloneSet(prefix)
	ignore.Or(g.Desc[anchor])
	ignore.Or(excluded)
	js.partition(anchor, r.Halfspaces(), pivot, k-prefix.Count(), ignore, prefix, excluded)
	return js.out, rf.stopped
}

// intervalExcluded returns the candidates provably outside every top-k set
// of the region, as an arena-backed bit set over the graph nodes (the shared
// k-th min-score rule, applied over the graph's candidate set against a
// subregion).
func (rf *refiner) intervalExcluded(r *geom.Region) bitset.Set {
	ex := rf.newSet()
	for i, out := range skyband.IntervalExcluded(rf.g.Records, r, rf.k) {
		if out {
			ex.Set(i)
		}
	}
	return ex
}

// jaaParallel is the decomposed UTK2 run: split the query region into
// subregions by longest-axis bisection — Workers·jaaOversplit of them, or
// the count a calibrated Options.Split cost model picks — run an independent
// JAA per subregion — Workers at a time on the executor — then stitch. The union of the subregion partitionings is an exact partitioning
// of R (subregions tile R, and JAA restricted to a subregion is the full
// partitioning clipped to it); the stitch pass coalesces cell fragments that
// were split purely by a seam — identical top-k sets and identical
// constraints up to one complementary seam pair — back into one cell, so the
// emitted partitioning is canonical for a given (region, Workers) pair.
func jaaParallel(g *skyband.Graph, r *geom.Region, k int, opts Options, st *Stats) ([]CellResult, error) {
	pieces := opts.Workers * jaaOversplit
	vol := regionVolumeProxy(r)
	if opts.Split != nil {
		pieces = opts.Split.Pieces(vol, opts.Workers)
	}
	subs, seams := geom.SplitRegion(r, pieces)
	st.EffectiveWorkers = opts.Workers
	if len(subs) < opts.Workers {
		st.EffectiveWorkers = len(subs)
	}
	if len(subs) == 1 {
		// Unsplittable region (e.g. vertex-only): honest fallback.
		out, stopped := jaaRegion(g, r, k, opts, st)
		if stopped {
			return nil, ErrCanceled
		}
		finishStats(st, out)
		return out, nil
	}
	results := make([][]CellResult, len(subs))
	workerStats := make([]*Stats, len(subs))
	pieceTimes := make([]time.Duration, len(subs))
	stopped := make([]bool, len(subs))
	grp := opts.executor().NewGroup(nil)
	for i, sub := range subs {
		i, sub := i, sub
		workerStats[i] = &Stats{}
		grp.Go(func(context.Context) error {
			start := time.Now()
			results[i], stopped[i] = jaaRegion(g, sub, k, opts, workerStats[i])
			pieceTimes[i] = time.Since(start)
			return nil
		})
	}
	_ = grp.Wait() // cancellation is reported through stopped, not errors
	for i := range subs {
		st.Merge(workerStats[i])
		if stopped[i] {
			return nil, ErrCanceled
		}
	}
	if opts.Split != nil {
		// Calibrate from this run: each piece is one (volume, candidates,
		// work) observation. Work is the piece's measured refinement time —
		// LP counts look appealing but mislead the fit, because shrinking a
		// piece makes each of its LPs cheaper (fewer constraint rows), so
		// the LP count's volume exponent understates the real one.
		for i, sub := range subs {
			opts.Split.Observe(regionVolumeProxy(sub), g.Len(), pieceTimes[i].Seconds())
		}
	}
	var out []CellResult
	for _, cells := range results {
		out = append(out, cells...)
	}
	out = coalesceSeams(out, seams)
	finishStats(st, out)
	return out, nil
}

// coalesceSeams merges cell fragments that a decomposition seam split: two
// cells merge iff their top-k sets are identical and their canonicalized
// constraint sets are identical except for one complementary pair ±(A, B)
// matching a seam cut. Under exactly those conditions the union of the two
// fragments is the convex polytope bounded by the shared constraints (each
// fragment is that polytope intersected with one side of the seam), so the
// merge is geometrically exact; the midpoint of the fragments' interior
// points is strictly interior to it. Merging repeats to a fixed point, so a
// cell quartered by two seams reassembles fully.
func coalesceSeams(cells []CellResult, seams []geom.Halfspace) []CellResult {
	if len(seams) == 0 || len(cells) < 2 {
		return cells
	}
	canon := make([]CellResult, len(cells))
	for i, c := range cells {
		canon[i] = canonicalCell(c)
	}
	for {
		merged := false
		// Index cells by (top-k set, constraints-minus-one-seam-halfspace):
		// a fragment pair maps to the same key through its seam constraint
		// and the complement's negation. A cell that merged this pass is
		// marked dirty — its indexed keys describe its pre-merge shape — and
		// re-enters matching on the next fixed-point round.
		type slot struct{ idx, drop int }
		index := make(map[string]slot, len(canon))
		alive := make([]bool, len(canon))
		dirty := make([]bool, len(canon))
		for i := range alive {
			alive[i] = true
		}
		for i := range canon {
			c := &canon[i]
			for ci, h := range c.Constraints {
				side, isSeam := seamSide(h, seams)
				if !isSeam {
					continue
				}
				key := residualKey(c, ci, side)
				other, ok := index[key]
				if !ok || !alive[other.idx] || dirty[other.idx] {
					index[key] = slot{idx: i, drop: ci}
					continue
				}
				o := &canon[other.idx]
				m, ok2 := mergeFragments(*o, other.drop, *c, ci)
				if !ok2 {
					continue
				}
				canon[other.idx] = m
				dirty[other.idx] = true
				alive[i] = false
				merged = true
				break
			}
		}
		next := canon[:0]
		for i, c := range canon {
			if alive[i] {
				next = append(next, c)
			}
		}
		canon = next
		if !merged {
			return canon
		}
	}
}

// canonicalCell returns the cell with exact-duplicate constraints dropped and
// the rest sorted bit-deterministically, so fragment comparison is
// representation-independent.
func canonicalCell(c CellResult) CellResult {
	cons := make([]geom.Halfspace, 0, len(c.Constraints))
	for _, h := range c.Constraints {
		dup := false
		for _, have := range cons {
			if sameHalfspaceBits(have, h) {
				dup = true
				break
			}
		}
		if !dup {
			cons = append(cons, h)
		}
	}
	sort.Slice(cons, func(a, b int) bool { return halfspaceLess(cons[a], cons[b]) })
	c.Constraints = cons
	return c
}

// seamSide reports whether h is a seam cut's positive (+1) or negative (−1)
// side half-space.
func seamSide(h geom.Halfspace, seams []geom.Halfspace) (side int, ok bool) {
	for _, s := range seams {
		if sameHalfspaceBits(h, s) {
			return 1, true
		}
		if negatedHalfspaceBits(h, s) {
			return -1, true
		}
	}
	return 0, false
}

// residualKey serializes a cell's top-k set plus its constraints with index
// drop removed, tagged with which seam hyperplane (sign-normalized) the
// dropped constraint belongs to — the rendezvous key for the two fragments
// of one seam split.
func residualKey(c *CellResult, drop, side int) string {
	b := make([]byte, 0, 64)
	for _, id := range c.TopK {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	b = append(b, 0xFF)
	h := c.Constraints[drop]
	sign := float64(side)
	for _, a := range h.A {
		b = appendBits(b, sign*a)
	}
	b = appendBits(b, sign*h.B)
	b = append(b, 0xFE)
	for i, hc := range c.Constraints {
		if i == drop {
			continue
		}
		for _, a := range hc.A {
			b = appendBits(b, a)
		}
		b = appendBits(b, hc.B)
	}
	return string(b)
}

func appendBits(b []byte, v float64) []byte {
	if v == 0 {
		v = 0 // collapse -0 into +0
	}
	u := math.Float64bits(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// mergeFragments joins two seam fragments whose residual constraints are
// identical (guaranteed by the rendezvous key): the merged cell keeps the
// shared constraints, takes the interior midpoint, and unions the bounding
// boxes.
func mergeFragments(a CellResult, dropA int, b CellResult, dropB int) (CellResult, bool) {
	if len(a.Constraints) != len(b.Constraints) || len(a.TopK) != len(b.TopK) {
		return CellResult{}, false
	}
	// The rendezvous key already certifies identical residuals; the dropped
	// pair must additionally be exact negations (the two sides of one cut).
	if !negatedHalfspaceBits(a.Constraints[dropA], b.Constraints[dropB]) {
		return CellResult{}, false
	}
	cons := make([]geom.Halfspace, 0, len(a.Constraints)-1)
	for i, h := range a.Constraints {
		if i != dropA {
			cons = append(cons, h)
		}
	}
	interior := make([]float64, len(a.Interior))
	for i := range interior {
		interior[i] = (a.Interior[i] + b.Interior[i]) / 2
	}
	m := CellResult{Constraints: cons, Interior: interior, TopK: a.TopK}
	if a.BoxLo != nil && b.BoxLo != nil {
		m.BoxLo = make([]float64, len(a.BoxLo))
		m.BoxHi = make([]float64, len(a.BoxHi))
		for i := range m.BoxLo {
			m.BoxLo[i] = min(a.BoxLo[i], b.BoxLo[i])
			m.BoxHi[i] = max(a.BoxHi[i], b.BoxHi[i])
		}
	}
	return m, true
}

// sameHalfspaceBits reports bit-exact equality.
func sameHalfspaceBits(a, b geom.Halfspace) bool {
	if len(a.A) != len(b.A) || a.B != b.B {
		return false
	}
	for i := range a.A {
		if a.A[i] != b.A[i] {
			return false
		}
	}
	return true
}

// negatedHalfspaceBits reports whether a == −b bit-exactly.
func negatedHalfspaceBits(a, b geom.Halfspace) bool {
	if len(a.A) != len(b.A) || a.B != -b.B {
		return false
	}
	for i := range a.A {
		if a.A[i] != -b.A[i] {
			return false
		}
	}
	return true
}

// halfspaceLess is a deterministic total order on half-spaces.
func halfspaceLess(a, b geom.Halfspace) bool {
	for i := range a.A {
		if a.A[i] != b.A[i] {
			return a.A[i] < b.A[i]
		}
	}
	return a.B < b.B
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
