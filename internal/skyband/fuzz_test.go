package skyband

import (
	"fmt"
	"testing"
)

// FuzzDynamicApplyOps decodes bytes into a band depth, a dimensionality, an
// initial record set and a stream of batches, and after every batch requires
// checkInvariants on the structure and batchVersusSingles against a twin fed
// the same ops one at a time. Every coordinate is one byte over 256 — a
// multiple of 2⁻²⁰, so exact ties and duplicates are common while near-ties
// below geom.Eps, where geom.Dominates is not transitive and the structure's
// three facts do not hold, stay out of scope.
//
// Layout: k-1 (mod 4), dim-2 (mod 3), n (mod 32), n records of dim bytes, then
// batches until the input ends: size-1 (mod 8), and per op a kind (mod 5) —
// 0, 1: insert (dim bytes); 2: delete the record in live slot b; 3: delete
// the entry at position b; 4: delete the b-th record this batch inserts (a
// coalesced pair). A delete with nothing to name, or naming a record the
// batch already deletes, is dropped. Input beyond 32 batches is ignored: the
// O(n²) oracle must stay fast enough for the fuzzer to explore.
func FuzzDynamicApplyOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		k, dim := 1+next()%4, 2+next()%3
		record := func() []float64 {
			rec := make([]float64, dim)
			for j := range rec {
				rec[j] = float64(next()) / 256
			}
			return rec
		}
		recs := make([][]float64, next()%32)
		for id := range recs {
			recs[id] = record()
		}
		c, seq := churnOver(t, recs, k), churnOver(t, recs, k).d
		checkInvariants(t, c.d, "construction")

		for batch := 0; batch < 32 && len(data) > 0; batch++ {
			var ops []Op
			var own []int
			taken := map[int]bool{}
			pick := func(n int, id func(int) int) {
				if b := next(); n > 0 && !taken[id(b%n)] {
					taken[id(b%n)] = true
					ops = append(ops, Op{ID: id(b % n)})
				}
			}
			for size := 1 + next()%8; size > 0 && len(data) > 0; size-- {
				switch next() % 5 {
				case 2:
					pick(len(c.d.ids), func(i int) int { return c.d.ids[i] })
				case 3:
					pick(len(c.d.ents), func(i int) int { return c.d.ents[i].id })
				case 4:
					pick(len(own), func(i int) int { return own[i] })
				default:
					own = append(own, c.d.NextID()+len(own))
					ops = append(ops, Op{Insert: true, Record: record()})
				}
			}
			batchVersusSingles(t, c, seq, ops, fmt.Sprintf("k=%d dim=%d batch %d %v", k, dim, batch, ops))
		}
	})
}
