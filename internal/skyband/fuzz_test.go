package skyband

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
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
			taken, ents := map[int]bool{}, entryIDs(c.d)
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
					pick(len(ents), func(i int) int { return ents[i] })
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

// FuzzIntervalPrefilter decodes bytes into a box, a depth, an arrival order
// and up to 256 records on up to 8 count levels, and requires checkPrefilter
// — survivors ≡ the complement of IntervalExcluded, every block bound sound,
// and every skipped block below θ — plus ScanGraphWith ≡ ScanGraph on ids
// and edge count, on both layouts (one block per level, and kd leaves of ≤ 8
// rows) and over every level prefix, as the engine reads a k-skyband.
// Coordinates are sixteenths in [−8, 8) times a power of two between 2⁻¹²⁰
// and 2¹³⁰, so exact ties, negative values, denormal-scale products and
// scales far apart all occur.
//
// Layout: dim−2 (mod 6), k−1 (mod 12), order (mod 3: as drawn, strongest-
// first, weakest-first by minimum score, within each level), the base
// exponent (mod 251, −120), per box side two bytes (lo as a share of
// 0.9/(dim−1), width−1 in 512ths), a negative-lo byte (bit j puts lo_j at
// −Eps·(4 − b>>6)/4, in [−Eps, 0), as NewBox admits), a box blow-up (above
// 128: hi[0] += 2^(b−126), out of the weight domain), then records until the
// input ends: a level byte (mod 8), a kind byte (mod 8) — 0: exact copy of
// record b; 1: copy of record b with one attribute moved by 1e-8 relative;
// else an exponent offset byte (signed, clamped to the range above) and dim
// coordinate bytes (signed).
func FuzzIntervalPrefilter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		dim, k, order := 2+next()%6, 1+next()%12, next()%3
		base := next()%251 - 120
		lo, hi := make([]float64, dim-1), make([]float64, dim-1)
		for j := range lo {
			lo[j] = float64(next()) / 256 * 0.9 / float64(dim-1)
			hi[j] = lo[j] + float64(1+next())/512
		}
		if b := next(); b != 0 {
			for j := range lo {
				if b&(1<<j) != 0 {
					lo[j] = -geom.Eps * float64(4-b>>6) / 4
				}
			}
		}
		if b := next(); b > 128 {
			hi[0] += math.Ldexp(1, b-126)
		}
		r, err := geom.NewBox(lo, hi)
		if err != nil {
			t.Skip(err)
		}
		type leveled struct {
			level int
			rec   []float64
		}
		var drawn []leveled
		for len(data) > 0 && len(drawn) < 256 {
			level := next() % 8
			switch kind := next() % 8; {
			case kind < 2 && len(drawn) > 0:
				rec := slices.Clone(drawn[next()%len(drawn)].rec)
				if kind == 1 {
					rec[next()%dim] *= 1 + 1e-8
				}
				drawn = append(drawn, leveled{level, rec})
			default:
				exp := min(max(base+int(int8(next())), -120), 130)
				rec := make([]float64, dim)
				for j := range rec {
					rec[j] = math.Ldexp(float64(int8(next())), exp-4)
				}
				drawn = append(drawn, leveled{level, rec})
			}
		}
		slices.SortStableFunc(drawn, func(a, b leveled) int {
			if c := cmp.Compare(a.level, b.level); c != 0 || order == 0 {
				return c
			}
			if order == 2 {
				a, b = b, a
			}
			return cmp.Compare(r.MinScore(b.rec), r.MinScore(a.rec))
		})
		recs, counts, ids := make([][]float64, len(drawn)), make([]int, len(drawn)), make([]int, len(drawn))
		for i, lr := range drawn {
			recs[i], counts[i], ids[i] = lr.rec, lr.level, 100+i
		}

		for li, b := range layouts(recs, counts) {
			for _, n := range levelCuts(counts) {
				rows := checkPrefilter(t, b, recs[:n], r, k)
				t.Logf("dim=%d k=%d order=%d n=%d %s: the pass evaluated %d rows (−1: declined)", dim, k, order, n, layoutNames[li], rows)
				want, _ := ScanGraphWith(nil, recs[:n], ids[:n], r, k)
				got, _ := ScanGraphWith(b, recs[:n], ids[:n], r, k)
				if we, ge := len(graphRelation(want)), len(graphRelation(got)); !slices.Equal(got.IDs, want.IDs) || ge != we {
					t.Fatalf("dim=%d k=%d n=%d %s: block-pass graph has ids %v and %d edges, float64 graph %v and %d", dim, k, n, layoutNames[li], got.IDs, ge, want.IDs, we)
				}
			}
		}
	})
}
