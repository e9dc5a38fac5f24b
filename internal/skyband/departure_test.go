package skyband

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// pillars returns k mutually incomparable records outside the unit cube that
// dominate every plantedFence record and no unit-cube record: planted beside
// IND data, they are band entries with count 0, and each plantedFence record
// has exactly k dominators, so it is a fence entry.
func pillars(k int) [][]float64 {
	recs := make([][]float64, k)
	for j := range recs {
		recs[j] = []float64{3 + 0.01*float64(j), 3 - 0.01*float64(j), -0.5, -0.5}
	}
	return recs
}

// plantedFence returns the i-th of a family of mutually incomparable fence
// records (0 ≤ i < 1000), followed by deps records that it dominates and no
// other record of the family does.
func plantedFence(i, deps int) [][]float64 {
	x := 1e-3 * float64(i)
	recs := [][]float64{{2 + x, 2 - x, -1, -1}}
	for m := 1; m <= deps; m++ {
		s := 1e-6 * float64(m)
		recs = append(recs, []float64{2 + x - s, 2 - x - s, -1 - s, -1.5})
	}
	return recs
}

// TestFenceDepartureRepairsOnlyOrphans deletes a fence entry covering 40
// records, then one that absorbed an entry and its dependants, and requires
// each re-cover pass to re-examine exactly the departed entry's dependants,
// with the invariants (the dependant lists included) holding after each.
func TestFenceDepartureRepairsOnlyOrphans(t *testing.T) {
	const k = 10
	recs := append(dataset.Synthetic(dataset.IND, 3000, 4, 3), pillars(k)...)
	fence := len(recs)
	recs = append(recs, plantedFence(0, 40)...)
	d, err := NewDynamic(recs, k)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, d, "built")
	if !d.isFence(fence) {
		t.Fatalf("planted record %d is not a fence entry", fence)
	}

	steps := func(ctxt string, op func(), want uint64) {
		t.Helper()
		before := d.Stats().RepairSteps
		op()
		if got := d.Stats().RepairSteps - before; got != want {
			t.Fatalf("%s: the re-cover pass re-examined %d records, want %d", ctxt, got, want)
		}
		checkInvariants(t, d, ctxt)
	}
	// The 40 dependants re-cover: the strongest joins the fence and covers
	// the other 39.
	steps("delete the planted entry", func() { d.Delete(fence) }, 40)
	heir := fence + 1
	if !d.isFence(heir) {
		t.Fatalf("its strongest dependant %d did not take its place on the fence", heir)
	}

	// A stronger fence record absorbs the heir and its 39 dependants; its
	// departure orphans all 40 of them.
	absorber, _ := d.Insert([]float64{2.5, 2.5, -0.9, -0.9})
	if !d.isFence(absorber) || d.Tracked(heir) {
		t.Fatalf("insert %d did not absorb fence entry %d", absorber, heir)
	}
	checkInvariants(t, d, "absorbed")
	steps("delete the absorber", func() { d.Delete(absorber) }, 40)

	// A fence entry covering nothing leaves without a pass.
	lone, _ := d.Insert(plantedFence(1, 0)[0])
	repairs := d.Stats().Repairs
	steps("delete a lone fence entry", func() { d.Delete(lone) }, 0)
	if d.Stats().Repairs != repairs {
		t.Fatal("a fence entry covering nothing started a re-cover pass")
	}
}

// departureBase builds an IND d=4, k=10 structure of n records plus the
// pillars plantedFence records need.
func departureBase(b testing.TB, n int) *Dynamic {
	d, err := NewDynamic(append(dataset.Synthetic(dataset.IND, n, 4, 1), pillars(10)...), 10)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkFenceDeparture is the delete of a fence entry covering two
// records: the pass re-covers its two orphans (the stronger joins the fence
// and covers the other). The entries are planted, and their orphans deleted
// again, in untimed chunks of 64. Its cost should not grow with the live
// table.
func BenchmarkFenceDeparture(b *testing.B) {
	for _, n := range []int{10_000, 250_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := departureBase(b, n)
			const chunk = 64
			b.ResetTimer()
			for done := 0; done < b.N; done += chunk {
				b.StopTimer()
				var plant []Op
				for i := range chunk {
					for _, rec := range plantedFence(i, 2) {
						plant = append(plant, Op{Insert: true, Record: rec})
					}
				}
				ids, _, err := d.ApplyOps(plant)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for i := 0; i < chunk && done+i < b.N; i++ {
					d.Delete(ids[3*i])
				}
				b.StopTimer()
				var orphans []Op
				for i, id := range ids {
					if i%3 != 0 && d.Has(id) {
						orphans = append(orphans, Op{ID: id})
					}
				}
				for i := 0; i < chunk && done+i >= b.N; i++ {
					orphans = append(orphans, Op{ID: ids[3*i]})
				}
				if _, _, err := d.ApplyOps(orphans); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkBandDominator inserts a record dominating every live record and
// deletes it again: every band entry is bumped (those at count k−1 leave for
// the fence, absorbing what they dominate) and then restored.
func BenchmarkBandDominator(b *testing.B) {
	for _, n := range []int{10_000, 250_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := departureBase(b, n)
			b.ResetTimer()
			for range b.N {
				id, _ := d.Insert([]float64{5, 5, 5, 5})
				d.Delete(id)
			}
		})
	}
}
