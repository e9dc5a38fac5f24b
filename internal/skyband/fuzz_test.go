package skyband

import (
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

// FuzzIntervalPrefilter decodes bytes into a box, a depth, an arrival order
// and up to 256 records, and requires checkPrefilter — survivors ≡ the
// complement of IntervalExcluded, and nothing the streaming pass drops was
// needed — plus ScanGraphWith ≡ ScanGraph on ids and edge count, over the
// whole record set and over a prefix read through the whole set's layout (as
// the engine reads a k-skyband). Coordinates
// are sixteenths in [−8, 8) times a power of two between 2⁻¹²⁰ and 2¹³⁰, so
// exact ties, negative values, float32 denormals, scales a slack apart and
// values beyond float32 range (where the kernel must decline) all occur.
//
// Layout: dim−2 (mod 6), k−1 (mod 12), order (mod 3: as drawn, strongest-
// first, weakest-first by minimum score), the base exponent (mod 251, −120),
// per box side two bytes (lo as a share of 0.9/(dim−1), width−1 in 512ths),
// a box blow-up (above 128: hi[0] += 2^(b−126), out of the weight domain and
// for large b out of float32 range), then records until the input ends: a
// kind byte (mod 8) — 0: exact copy of record b; 1: copy of record b with one
// attribute moved by 1e-8 relative; else an exponent offset byte (signed,
// clamped to the range above) and dim coordinate bytes (signed).
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
		if b := next(); b > 128 {
			hi[0] += math.Ldexp(1, b-126)
		}
		r, err := geom.NewBox(lo, hi)
		if err != nil {
			t.Skip(err)
		}
		var recs [][]float64
		for len(data) > 0 && len(recs) < 256 {
			switch kind := next() % 8; {
			case kind < 2 && len(recs) > 0:
				rec := slices.Clone(recs[next()%len(recs)])
				if kind == 1 {
					rec[next()%dim] *= 1 + 1e-8
				}
				recs = append(recs, rec)
			default:
				exp := min(max(base+int(int8(next())), -120), 130)
				rec := make([]float64, dim)
				for j := range rec {
					rec[j] = math.Ldexp(float64(int8(next())), exp-4)
				}
				recs = append(recs, rec)
			}
		}
		ids := make([]int, len(recs))
		for i := range ids {
			ids[i] = 100 + i
		}
		recs = arrivalOrders(recs, r)[order]

		cols := NewColumns(recs)
		kept := checkPrefilter(t, cols, recs, r, k)
		t.Logf("dim=%d k=%d order=%d n=%d: stream kept %d (−1: kernel declined)", dim, k, order, len(recs), kept)
		// The engine filters a k-skyband through a prefix view of the whole
		// band's layout; the cut is taken from the decoded exponent.
		cut := (base + 120) % (len(recs) + 1)
		checkPrefilter(t, cols.Prefix(cut), recs[:cut], r, k)
		for _, n := range []int{len(recs), cut} {
			want, got := ScanGraph(recs[:n], ids[:n], r, k), ScanGraphWith(cols.Prefix(n), recs[:n], ids[:n], r, k)
			if we, ge := len(graphRelation(want)), len(graphRelation(got)); !slices.Equal(got.IDs, want.IDs) || ge != we {
				t.Fatalf("dim=%d k=%d n=%d: float32-layout graph has ids %v and %d edges, float64 graph %v and %d", dim, k, n, got.IDs, ge, want.IDs, we)
			}
		}
	})
}
