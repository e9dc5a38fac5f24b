package skyband

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// churnRecords returns n records on the grid of multiples of 2⁻²⁰, in chains
// of five from a point near the plane Σx = 1, each a step of 2⁻¹⁰ below the
// last in the first coordinate: with k = 3 a chain is three band entries, a
// fence entry and a covered record, so the entries of both grids grow with n.
// A chain's records tie exactly in every other coordinate, and every seventh
// record repeats an earlier one, so ties and duplicates sit on the cuts
// (which are row coordinates).
func churnRecords(rng *rand.Rand, n, dim int) [][]float64 {
	const unit = 1.0 / (1 << 20)
	recs := make([][]float64, 0, n)
	for len(recs) < n {
		if len(recs)%7 == 6 {
			recs = append(recs, recs[rng.Intn(len(recs))])
			continue
		}
		base := make([]float64, dim)
		sum := 0.0
		for j := range base {
			base[j] = rng.ExpFloat64()
			sum += base[j]
		}
		for j := range base {
			base[j] = math.Floor(base[j]/sum/unit) * unit
		}
		for step := range 5 {
			rec := slices.Clone(base)
			rec[0] -= float64(step) * unit * 1024
			recs = append(recs, rec)
		}
	}
	return recs[:n]
}

// TestGridRebucketChurn grows a structure from empty until both grids have
// re-bucketed on doubling at least three times (from rowsPerCell rows to 8
// times that), then deletes every record, which takes both back down through
// as many halvings, at d = 2–5,
// with checkInvariants — the grids mirroring the entries included — after
// every batch.
func TestGridRebucketChurn(t *testing.T) {
	for dim := 2; dim <= 5; dim++ {
		t.Run(fmt.Sprintf("d=%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(dim)))
			d, err := NewDynamic(nil, 3)
			if err != nil {
				t.Fatal(err)
			}
			grown := func() bool { return d.band.sized >= 8*rowsPerCell && d.fence.sized >= 8*rowsPerCell }
			var live []int
			for batch := 0; !grown(); batch++ {
				var ops []Op
				for _, rec := range churnRecords(rng, 10, dim) {
					ops = append(ops, Op{Insert: true, Record: rec})
				}
				if batch%3 == 2 { // a delete now and then, so the grids also lose rows on the way up
					ops = append(ops, Op{ID: live[rng.Intn(len(live))]})
				}
				ids, _, err := d.ApplyOps(ops)
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range ops {
					if op.Insert {
						live = append(live, ids[i])
					} else {
						live = slices.DeleteFunc(live, func(id int) bool { return id == op.ID })
					}
				}
				checkInvariants(t, d, fmt.Sprintf("grow batch %d", batch))
			}
			for batch := 0; len(live) > 0; batch++ {
				var ops []Op
				for range min(8, len(live)) {
					x := rng.Intn(len(live))
					ops = append(ops, Op{ID: live[x]})
					live[x] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if _, _, err := d.ApplyOps(ops); err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, d, fmt.Sprintf("shrink batch %d", batch))
			}
			if d.band.sized != rowsPerCell || d.fence.sized != rowsPerCell {
				t.Fatalf("emptied, the grids were last sized for %d and %d rows, want %d", d.band.sized, d.fence.sized, rowsPerCell)
			}
		})
	}
}
