package core

import (
	"repro/internal/bitset"
	"repro/internal/geom"
)

// cancelStride is how many drill-probe nodes are visited between
// Options.Cancel polls: frequent enough that even a single deep probe stays
// responsive, sparse enough that the poll cost vanishes against the scoring
// work.
const cancelStride = 64

// drillVector computes the drill vector of Section 4.3 for candidate p in
// the cell bounded by the given half-spaces: the weight vector inside the
// cell that maximizes S(p), found by linear programming from the cell's
// interior point. It returns nil when the cell is empty (defensive; cells
// always have interior points).
func (rf *refiner) drillVector(p int, cell []geom.Halfspace, interior []float64) []float64 {
	rec := rf.g.Records[p]
	d := len(rec)
	obj := make([]float64, rf.dim)
	for i := 0; i < rf.dim; i++ {
		obj[i] = rec[i] - rec[d-1]
	}
	rf.st.Arrangement.LPCalls++
	w, _, ok := rf.ws.OptimizeLinear(rf.dim, cell, obj, true, interior)
	if !ok {
		return nil
	}
	return w
}

// countAbove returns the number of competitors in comp ranking above
// candidate p at weight vector w, stopping early once the count reaches
// limit. When Options.LinearDrill is unset it runs the graph-guided
// branch-and-bound of Section 4.3: scores decrease along r-dominance edges,
// so a node scoring at or below p prunes its entire subtree.
//
// Options.Cancel is polled every cancelStride nodes: on very deep single
// cells the drill's top-k probe is the long pole of a recursion step, so a
// deadline or a superseded epoch must be able to interrupt it from inside.
// A tripped poll reports limit — "quota reached" — which makes the drill
// fail cheaply; the latched verdict then unwinds the refinement through the
// next stop() check with ErrCanceled, so the fabricated count is never
// observable in an answer.
func (rf *refiner) countAbove(p int, comp bitset.Set, w []float64, limit int) int {
	steps := 0
	if rf.opts.LinearDrill {
		cnt := 0
		comp.ForEach(func(q int) bool {
			if steps%cancelStride == 0 && rf.stop() {
				cnt = limit
				return false
			}
			steps++
			if rf.above(q, p, w) {
				cnt++
			}
			return cnt < limit
		})
		return cnt
	}
	// Graph-guided search. Scores never increase along r-dominance edges
	// anywhere in R, so a node scoring strictly below p prunes its entire
	// subtree. Traversal starts from the graph roots and passes through
	// non-competitor nodes (they are transit only and are not counted).
	n := rf.g.Len()
	mark := rf.sc.Mark()
	defer rf.sc.Rewind(mark)
	visited := rf.newSet()
	sp := geom.Score(rf.g.Records[p], w)
	cnt := 0
	stack := rf.sc.Ints(n)
	push := func(q int) {
		if !visited.Has(q) {
			visited.Set(q)
			stack = append(stack, q)
		}
	}
	for q := 0; q < n; q++ {
		if len(rf.g.Parents[q]) == 0 {
			push(q)
		}
	}
	for len(stack) > 0 && cnt < limit {
		if steps%cancelStride == 0 && rf.stop() {
			return limit
		}
		steps++
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if geom.Score(rf.g.Records[q], w) < sp-geom.Eps {
			// Every descendant of q scores at most S(q) inside R: prune.
			continue
		}
		if comp.Has(q) && rf.above(q, p, w) {
			cnt++
		}
		for _, c := range rf.g.Children[q] {
			push(c)
		}
	}
	return cnt
}

// drill performs the drill optimization: a top-k probe at the drill vector.
// It reports whether candidate p ranks within quota among the competitors in
// comp somewhere in the cell.
func (rf *refiner) drill(p int, cell []geom.Halfspace, interior []float64, quota int, comp bitset.Set) bool {
	rf.st.Drills++
	w := rf.drillVector(p, cell, interior)
	if w == nil {
		return false
	}
	if rf.countAbove(p, comp, w, quota) < quota {
		rf.st.DrillHits++
		return true
	}
	return false
}
