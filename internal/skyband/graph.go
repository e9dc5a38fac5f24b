package skyband

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// Graph is the r-dominance graph G of Section 4.1: a DAG over the r-skyband
// members where an arc p → q encodes that p r-dominates q. The graph stores
// the full transitive relation as ancestor/descendant bit sets (the quotas
// and Lemma-1 pruning need counts over arbitrary ignore sets) plus the
// transitive-reduction edges used by the drill top-k search.
type Graph struct {
	// Records holds the member coordinates, indexed by node id. Nodes are
	// ordered by non-increasing pivot score, so ancestors always have
	// smaller node ids than their descendants (a topological order).
	Records [][]float64
	// IDs maps node ids back to dataset record ids.
	IDs []int
	// Anc[i] is the set of all nodes that r-dominate node i.
	Anc []bitset.Set
	// Desc[i] is the set of all nodes r-dominated by node i.
	Desc []bitset.Set
	// Parents and Children are the transitive-reduction adjacency.
	Parents  [][]int
	Children [][]int
	// Region is the query region the relation was built for.
	Region *geom.Region
	// K is the skyband depth the members were filtered with.
	K int
}

// BuildGraph computes the r-skyband of the indexed dataset and its
// r-dominance graph in one pass. The returned graph contains exactly the
// records r-dominated by fewer than k others. The branch-and-bound search is
// seeded with the interval prefilter (the tree-mode analogue of ScanGraph's
// k-th min-score pruning): subtrees whose best possible score over R lies
// below the k-th accepted member's guaranteed score are cut without any
// dominance tests.
func BuildGraph(t *rtree.Tree, r *geom.Region, k int) *Graph {
	return buildGraph(t, r, k, true)
}

// buildGraph carries the prefilter ablation switch for the Figure 10(a)
// filter-comparison benchmark; both settings produce the identical graph.
func buildGraph(t *rtree.Tree, r *geom.Region, k int, prefilter bool) *Graph {
	pivot := r.Pivot()
	key := func(p []float64) float64 { return geom.Score(p, pivot) }
	dom := func(p, q []float64) bool { return RDominates(p, q, r) }
	var ib *intervalBound
	if prefilter {
		ib = &intervalBound{r: r, mins: newKLargest[float64](k)}
	}
	ms := bbs(t, k, key, dom, ib)
	recs := make([][]float64, len(ms))
	ids := make([]int, len(ms))
	for i, m := range ms {
		recs[i] = m.rec
		ids[i] = m.id
	}
	return NewGraph(recs, ids, r, k)
}

// NewGraph builds the r-dominance graph over an explicit candidate superset
// (each candidate r-dominated by fewer than k others within the full
// dataset; by transitivity, counting within the superset is exact). Members
// whose count reaches k are dropped.
func NewGraph(records [][]float64, ids []int, r *geom.Region, k int) *Graph {
	n := len(records)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	pivot := r.Pivot()
	scores := make([]float64, n)
	for i, rec := range records {
		scores[i] = geom.Score(rec, pivot)
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })

	sortedRecs := make([][]float64, n)
	sortedIDs := make([]int, n)
	for i, o := range order {
		sortedRecs[i] = records[o]
		sortedIDs[i] = ids[o]
	}

	// Pairwise relation. A record can only r-dominate records with lower or
	// equal pivot score, so for i < j only i→j needs testing, plus j→i when
	// pivot scores tie.
	anc := make([]bitset.Set, n)
	for i := range anc {
		anc[i] = bitset.New(n)
	}
	sortedScores := make([]float64, n)
	for i, o := range order {
		sortedScores[i] = scores[o]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if RDominates(sortedRecs[i], sortedRecs[j], r) {
				anc[j].Set(i)
			} else if sortedScores[i]-sortedScores[j] <= geom.Eps &&
				RDominates(sortedRecs[j], sortedRecs[i], r) {
				anc[i].Set(j)
			}
		}
	}

	// Drop members with count ≥ k, compacting node ids.
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if anc[i].Count() < k {
			keep = append(keep, i)
		}
	}
	g := &Graph{
		Records: make([][]float64, len(keep)),
		IDs:     make([]int, len(keep)),
		Anc:     make([]bitset.Set, len(keep)),
		Desc:    make([]bitset.Set, len(keep)),
		Region:  r,
		K:       k,
	}
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	for newID, oldID := range keep {
		remap[oldID] = newID
	}
	for newID, oldID := range keep {
		g.Records[newID] = sortedRecs[oldID]
		g.IDs[newID] = sortedIDs[oldID]
		a := bitset.New(len(keep))
		anc[oldID].ForEach(func(old int) bool {
			// Every r-dominator of a kept member is itself kept: its count is
			// strictly below the dominee's.
			if m := remap[old]; m >= 0 {
				a.Set(m)
			}
			return true
		})
		g.Anc[newID] = a
	}
	for i := range g.Desc {
		g.Desc[i] = bitset.New(len(keep))
	}
	for i, a := range g.Anc {
		a.ForEach(func(p int) bool {
			g.Desc[p].Set(i)
			return true
		})
	}
	g.buildReduction()
	return g
}

// buildReduction derives the transitive-reduction edges: q is a direct
// parent of p iff q r-dominates p and no other r-dominator of p is
// r-dominated by q.
func (g *Graph) buildReduction() {
	n := g.Len()
	g.Parents = make([][]int, n)
	g.Children = make([][]int, n)
	for i := 0; i < n; i++ {
		implied := bitset.New(n)
		g.Anc[i].ForEach(func(p int) bool {
			implied.Or(g.Anc[p])
			return true
		})
		direct := g.Anc[i].Clone()
		direct.AndNot(implied)
		direct.ForEach(func(p int) bool {
			g.Parents[i] = append(g.Parents[i], p)
			g.Children[p] = append(g.Children[p], i)
			return true
		})
	}
}

// Len returns the number of graph nodes (r-skyband members).
func (g *Graph) Len() int { return len(g.Records) }

// DomCount returns the r-dominance count of node i: the number of members
// that r-dominate it.
func (g *Graph) DomCount(i int) int { return g.Anc[i].Count() }

// DomCountIgnoring returns the r-dominance count of node i restricted to the
// nodes marked in the active set.
func (g *Graph) DomCountIgnoring(i int, active bitset.Set) int {
	return g.Anc[i].IntersectionCount(active)
}

// Bytes estimates the memory footprint of the graph (records, bit sets,
// adjacency) for the space-accounting experiment of Figure 13(b).
func (g *Graph) Bytes() int {
	n := g.Len()
	if n == 0 {
		return 0
	}
	b := 0
	for _, r := range g.Records {
		b += 8 * len(r)
	}
	b += 8 * n // IDs
	words := (n + 63) / 64
	b += 2 * n * words * 8 // Anc + Desc
	for i := range g.Parents {
		b += 8 * (len(g.Parents[i]) + len(g.Children[i]))
	}
	return b
}
