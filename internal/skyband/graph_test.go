package skyband

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/rtree"
)

func TestGraphRelationsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	data := randomData(rng, 300, 3)
	tree, _ := rtree.BulkLoad(data, 16)
	r := mustBox(t, []float64{0.15, 0.15}, []float64{0.35, 0.35})
	k := 4
	g := BuildGraph(tree, r, k)

	// Membership must equal the naive r-skyband.
	want := map[int]bool{}
	for _, id := range naiveRSkyband(data, r, k) {
		want[id] = true
	}
	if g.Len() != len(want) {
		t.Fatalf("graph has %d members, naive r-skyband has %d", g.Len(), len(want))
	}
	for _, id := range g.IDs {
		if !want[id] {
			t.Fatalf("record %d in graph but not in naive r-skyband", id)
		}
	}

	// Ancestor sets must equal the pairwise relation.
	for i := 0; i < g.Len(); i++ {
		for j := 0; j < g.Len(); j++ {
			if i == j {
				continue
			}
			dom := RDominates(g.Records[j], g.Records[i], r)
			if dom != g.Anc[i].Has(j) {
				t.Fatalf("ancestor bit (%d dominates %d) = %v, pairwise test = %v",
					j, i, g.Anc[i].Has(j), dom)
			}
			if dom != g.Desc[j].Has(i) {
				t.Fatal("descendant sets inconsistent with ancestor sets")
			}
		}
	}

	// Dominance counts must stay below k.
	for i := 0; i < g.Len(); i++ {
		if g.DomCount(i) >= k {
			t.Fatalf("member %d has dominance count %d ≥ k", i, g.DomCount(i))
		}
	}
}

func TestGraphTopologicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := randomData(rng, 200, 4)
	tree, _ := rtree.BulkLoad(data, 16)
	r := mustBox(t, []float64{0.1, 0.1, 0.1}, []float64{0.3, 0.3, 0.3})
	g := BuildGraph(tree, r, 3)
	for i := 0; i < g.Len(); i++ {
		g.Anc[i].ForEach(func(p int) bool {
			if p >= i {
				t.Fatalf("ancestor %d of %d does not precede it in node order", p, i)
			}
			return true
		})
	}
}

func TestGraphTransitiveReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data := randomData(rng, 250, 3)
	tree, _ := rtree.BulkLoad(data, 16)
	r := mustBox(t, []float64{0.2, 0.1}, []float64{0.4, 0.3})
	g := BuildGraph(tree, r, 5)

	// Reachability through reduction edges must reproduce the ancestor sets.
	for i := 0; i < g.Len(); i++ {
		reach := bitset.New(g.Len())
		var stack []int
		stack = append(stack, g.Parents[i]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach.Has(v) {
				continue
			}
			reach.Set(v)
			stack = append(stack, g.Parents[v]...)
		}
		if reach.Count() != g.Anc[i].Count() {
			t.Fatalf("node %d: reduction reaches %d ancestors, relation has %d",
				i, reach.Count(), g.Anc[i].Count())
		}
		g.Anc[i].ForEach(func(p int) bool {
			if !reach.Has(p) {
				t.Fatalf("ancestor %d of %d unreachable through reduction edges", p, i)
			}
			return true
		})
	}

	// No redundant direct edge: a parent must not dominate another parent's
	// ancestor chain into i.
	for i := 0; i < g.Len(); i++ {
		for _, p := range g.Parents[i] {
			for _, q := range g.Parents[i] {
				if p != q && g.Anc[q].Has(p) {
					t.Fatalf("edge %d→%d is implied by %d→%d→%d", p, i, p, q, i)
				}
			}
		}
	}
}

func TestGraphBytesPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	data := randomData(rng, 100, 3)
	tree, _ := rtree.BulkLoad(data, 16)
	r := mustBox(t, []float64{0.1, 0.1}, []float64{0.4, 0.4})
	g := BuildGraph(tree, r, 2)
	if g.Len() > 0 && g.Bytes() <= 0 {
		t.Fatal("non-empty graph should report positive size")
	}
}
