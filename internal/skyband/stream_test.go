package skyband

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
)

// churnWorst drives a delete-biased churn mix and returns the worst observed
// single-update latency. The mix deletes preferentially from the band, so
// fence entries keep getting promoted and their dependants re-covered — the
// expensive case for the structure.
func churnWorst(b *testing.B, dyn *Dynamic, recs [][]float64, ops int, seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	ids, _, _ := dyn.Band()
	pool := append([]int(nil), ids...)
	var worst time.Duration
	d0 := len(recs[0])
	for op := 0; op < ops; op++ {
		if op%3 == 0 || len(pool) == 0 {
			rec := make([]float64, d0)
			for j := range rec {
				rec[j] = rng.Float64()
			}
			start := time.Now()
			id, eff := dyn.Insert(rec)
			if el := time.Since(start); el > worst {
				worst = el
			}
			if eff.InBand {
				pool = append(pool, id)
			}
		} else {
			pick := rng.Intn(len(pool))
			id := pool[pick]
			pool[pick] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			if !dyn.Has(id) {
				continue
			}
			start := time.Now()
			dyn.Delete(id)
			if el := time.Since(start); el > worst {
				worst = el
			}
		}
		if len(pool) < 4 {
			bandIDs, _, _ := dyn.Band()
			pool = append(pool[:0], bandIDs...)
		}
	}
	return worst
}

// BenchmarkDynamicChurnWorstLatency is the hand-run tail probe: the worst
// single-update latency under the 50k/d=4 band-targeted churn suite (the
// max-update-ns metric), which no amortized repair may inflate — compare it
// with ns/op ÷ ops, the mean.
func BenchmarkDynamicChurnWorstLatency(b *testing.B) {
	const n, d0, k = 50000, 4, 10
	recs := dataset.Synthetic(dataset.IND, n, d0, 11)
	ops := 4000
	if testing.Short() {
		ops = 1000
	}
	var worst time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dyn, err := NewDynamic(recs, k)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if w := churnWorst(b, dyn, recs, ops, int64(i)); w > worst {
			worst = w
		}
	}
	b.ReportMetric(float64(worst.Nanoseconds()), "max-update-ns")
}

// BenchmarkDynamicDeleteNonMember pins the covered-record delete: it does no
// dominance work at all (Fact 2), so it must run in the league of its slot
// bookkeeping (≈100ns plus the one-op batch's fixed cost).
func BenchmarkDynamicDeleteNonMember(b *testing.B) {
	const n, d0, k = 50000, 4, 10
	recs := dataset.Synthetic(dataset.IND, n, d0, 13)
	dyn, err := NewDynamic(recs, k)
	if err != nil {
		b.Fatal(err)
	}
	collect := func() []int {
		victims := make([]int, 0, n)
		for id := 0; id < dyn.NextID(); id++ {
			if dyn.Has(id) && !dyn.Tracked(id) {
				victims = append(victims, id)
			}
		}
		return victims
	}
	victims := collect()
	pending := make([][]float64, 0, len(victims))
	b.ResetTimer()
	v := 0
	for i := 0; i < b.N; i++ {
		if v == len(victims) {
			b.StopTimer()
			for _, rec := range pending {
				dyn.Insert(rec)
			}
			pending = pending[:0]
			victims = collect()
			v = 0
			b.StartTimer()
		}
		rec, _, _ := dyn.Delete(victims[v])
		v++
		pending = append(pending, rec)
	}
}
