package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/arrangement"
	"repro/internal/bitset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/skyband"
)

// RSA answers the UTK1 query (Algorithm 1): it returns the dataset ids of
// exactly those records that belong to the top-k set for at least one weight
// vector in r. The result is minimal: every reported record has a witness
// vector in r.
func RSA(t *rtree.Tree, r *geom.Region, k int, opts Options) ([]int, *Stats, error) {
	if err := checkQuery(t, r, k); err != nil {
		return nil, nil, err
	}
	st := &Stats{}
	start := time.Now()
	g := skyband.BuildGraph(t, r, k)
	st.FilterDuration = time.Since(start)
	ids, err := RSAFromGraph(g, r, k, opts, st)
	if err != nil {
		return nil, nil, err
	}
	return ids, st, nil
}

// RSAFromGraph runs RSA's refinement step over a prebuilt r-dominance graph.
// It is exposed so that the baselines and the benchmark harness can share
// filtering work; st may be nil.
func RSAFromGraph(g *skyband.Graph, r *geom.Region, k int, opts Options, st *Stats) ([]int, error) {
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
	st.EffectiveWorkers = 1 // trivial answers below never fan out
	if n == 0 {
		return nil, nil
	}
	if n <= k {
		// Fewer candidates than slots: every r-skyband member (i.e., every
		// record of a small dataset) is in every top-k set.
		return append([]int(nil), g.IDs...), nil
	}
	// Candidates in descending r-dominance count, so confirming one
	// implicitly confirms all its ancestors (Section 4.2).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.DomCount(order[a]) > g.DomCount(order[b])
	})

	var verified bitset.Set
	var stopped bool
	if opts.Workers > 1 {
		st.EffectiveWorkers = opts.Workers
		verified, stopped = rsaParallel(g, r, k, opts, st, order)
	} else {
		verified, stopped = rsaSequential(g, r, k, opts, st, order)
	}
	if stopped {
		return nil, ErrCanceled
	}
	out := make([]int, 0, verified.Count())
	verified.ForEach(func(i int) bool {
		out = append(out, g.IDs[i])
		return true
	})
	return out, nil
}

func rsaSequential(g *skyband.Graph, r *geom.Region, k int, opts Options, st *Stats, order []int) (bitset.Set, bool) {
	n := g.Len()
	rf := newRefiner(g, r, k, opts, st)
	defer rf.release()
	active := fullSet(n) // candidates not yet disqualified
	verified := bitset.New(n)
	hs, pivot := r.Halfspaces(), r.Pivot()
	for _, p := range order {
		if rf.stop() {
			return verified, true
		}
		if verified.Has(p) || !active.Has(p) {
			continue
		}
		// The quota reduction may use the full ancestor set: every ancestor
		// outscores p throughout R and counts toward its rank whether or not
		// it is itself part of the result.
		mark := rf.sc.Mark()
		ignore := rf.cloneSet(g.Anc[p])
		quota := k - ignore.Count()
		if rf.verify(p, hs, pivot, quota, ignore, active) {
			verified.Set(p)
			g.Anc[p].ForEach(func(a int) bool {
				verified.Set(a)
				return true
			})
		} else {
			active.Clear(p)
		}
		rf.sc.Rewind(mark)
	}
	return verified, rf.stopped
}

// rsaParallel fans candidate verification out to opts.Workers tasks on the
// executor (the caller's shared scheduler, or a transient one). Shared state
// is limited to the verified/active sets (mutex-guarded snapshots); each
// task owns a refiner, so half-space caches and arrangement counters never
// contend. Verdicts are interleaving-independent (see Options.Workers), so
// the result set equals the sequential one.
func rsaParallel(g *skyband.Graph, r *geom.Region, k int, opts Options, st *Stats, order []int) (bitset.Set, bool) {
	n := g.Len()
	var mu sync.Mutex
	active := fullSet(n)
	verified := bitset.New(n)
	next := 0
	workerStats := make([]*Stats, opts.Workers)
	stopped := make([]bool, opts.Workers)
	grp := opts.executor().NewGroup(nil)
	for wi := 0; wi < opts.Workers; wi++ {
		wi := wi
		workerStats[wi] = &Stats{}
		grp.Go(func(context.Context) error {
			rf := newRefiner(g, r, k, opts, workerStats[wi])
			defer rf.release()
			defer func() { stopped[wi] = rf.stopped }()
			hs, pivot := r.Halfspaces(), r.Pivot()
			for {
				if rf.stop() {
					return nil
				}
				mu.Lock()
				var p = -1
				for next < len(order) {
					cand := order[next]
					next++
					if !verified.Has(cand) && active.Has(cand) {
						p = cand
						break
					}
				}
				if p < 0 {
					mu.Unlock()
					return nil
				}
				mark := rf.sc.Mark()
				snapshot := rf.cloneSet(active)
				mu.Unlock()
				ignore := rf.cloneSet(g.Anc[p])
				quota := k - ignore.Count()
				ok := rf.verify(p, hs, pivot, quota, ignore, snapshot)
				mu.Lock()
				if ok {
					verified.Set(p)
					g.Anc[p].ForEach(func(a int) bool {
						verified.Set(a)
						return true
					})
				} else {
					active.Clear(p)
				}
				mu.Unlock()
				rf.sc.Rewind(mark)
			}
		})
	}
	_ = grp.Wait() // tasks report cancellation through stopped, not errors
	anyStopped := false
	for _, s := range stopped {
		anyStopped = anyStopped || s
	}
	for _, ws := range workerStats {
		st.Merge(ws)
	}
	return verified, anyStopped
}

// verify is Algorithm 2: it decides whether candidate p enters the top-k set
// somewhere in the cell, given a rank quota and an ignore set, recursing
// into promising partitions with Lemma-1 pruning.
func (rf *refiner) verify(p int, cell []geom.Halfspace, interior []float64, quota int, ignore, active bitset.Set) bool {
	if rf.stop() {
		// The verdict is unusable; the callers unwind without consuming it.
		return false
	}
	rf.st.VerifyCalls++
	if quota <= 0 {
		return false
	}
	mark := rf.sc.Mark()
	defer rf.sc.Rewind(mark)
	comp := rf.cloneSet(active)
	comp.AndNot(ignore)
	comp.Clear(p)

	if !rf.opts.DisableDrill && rf.drill(p, cell, interior, quota, comp) {
		return true
	}
	if comp.Empty() {
		// No competitor can outscore p anywhere in the cell.
		return true
	}

	arr, err := arrangement.NewWith(rf.dim, cell, rf.g.Len(), &rf.st.Arrangement, rf.ws, interior)
	if err != nil {
		// Defensive: recursion only descends into full-dimensional cells.
		return false
	}
	srcs := rf.sources(comp)
	inserted := rf.newSet()
	for _, q := range srcs {
		arr.Insert(q, rf.halfspace(q, p))
		inserted.Set(q)
	}

	// Promising partitions in decreasing count order (Section 4.2).
	cells := arr.Cells()
	var promising []*arrangement.Cell
	for _, c := range cells {
		if c.Count() < quota {
			promising = append(promising, c)
		}
	}
	sort.SliceStable(promising, func(a, b int) bool {
		return promising[a].Count() > promising[b].Count()
	})
	for _, c := range promising {
		cannot := rf.cannotAffect(srcs, c, comp)
		remaining := rf.cloneSet(comp)
		remaining.AndNot(inserted)
		remaining.AndNot(cannot)
		if remaining.Empty() {
			// Lemma 1 confirms the count: no remaining competitor's
			// half-space can overlap this partition.
			return true
		}
		next := rf.cloneSet(ignore)
		next.Or(inserted)
		next.Or(cannot)
		if rf.verify(p, c.Constraints(), c.Interior(), quota-c.Count(), next, active) {
			return true
		}
	}
	return false
}
