package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/skyband"
)

// randomBox is a fresh box of side 0.05 in the 3-dimensional weight domain.
func randomBox(t testing.TB, rng *rand.Rand) *geom.Region {
	lo := []float64{rng.Float64() * 0.25, rng.Float64() * 0.25, rng.Float64() * 0.25}
	return box(t, lo, []float64{lo[0] + 0.05, lo[1] + 0.05, lo[2] + 0.05})
}

// TestIndexSplitsOnce pins the block layout's split rule (see index): a
// fresh or restored index and every publication carry the unsplit layout;
// the query whose filter pass takes the epoch's evaluated rows to
// Blocks.SplitCost swaps in the split layout, exactly once, also with 8
// queriers crossing the count together; UTK1 ids and UTK2 cells are the same
// on both layouts; and an update that leaves the band alone keeps the split
// layout with its index.
func TestIndexSplitsOnce(t *testing.T) {
	td := buildData(t, 4000, 4, 7)
	cfg := Config{MaxK: 8, CacheEntries: -1}
	ctx := context.Background()
	e := buildEngine(t, td.recs, cfg)
	restored, err := Restore(e.ExportState(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]*Engine{"fresh": e, "restored": restored} {
		if cost := eng.idx.Load().blocks.Load().SplitCost(); cost == 0 {
			t.Fatalf("%s: the index was published with a split layout", name)
		}
	}

	ix := e.idx.Load()
	unsplit := ix.blocks.Load()
	cost := int64(unsplit.SplitCost())
	rng := rand.New(rand.NewSource(3))
	var reqs []Request
	for _, k := range []int{3, 8} {
		reqs = append(reqs, Request{Variant: UTK1, K: k, Region: randomBox(t, rng)}, Request{Variant: UTK2, K: k, Region: randomBox(t, rng)})
	}
	answers := func() []*Result {
		t.Helper()
		var out []*Result
		for _, req := range reqs {
			res, err := e.compute(ctx, req, ix)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	before := answers()
	if ix.blocks.Load() != unsplit {
		t.Fatalf("%d rows evaluated of the %d a split costs, and the layout is split", ix.scanned.Load(), cost)
	}
	for ix.blocks.Load() == unsplit {
		prev := ix.scanned.Load()
		if _, err := e.compute(ctx, Request{Variant: UTK1, K: 1 + rng.Intn(8), Region: randomBox(t, rng)}, ix); err != nil {
			t.Fatal(err)
		}
		now := ix.scanned.Load()
		switch split := ix.blocks.Load() != unsplit; {
		case split && (prev >= cost || now < cost):
			t.Fatalf("the layout was split by the query that took the evaluated rows from %d to %d; the split costs %d", prev, now, cost)
		case !split && now >= cost:
			t.Fatalf("%d rows evaluated of the %d a split costs, and the layout is unsplit", now, cost)
		}
	}
	split := ix.blocks.Load()
	if split.SplitCost() != 0 {
		t.Fatal("the swapped-in layout is not split")
	}
	after := answers()
	for i, req := range reqs {
		if !reflect.DeepEqual(before[i].IDs, after[i].IDs) || !reflect.DeepEqual(before[i].Cells, after[i].Cells) {
			t.Errorf("%v k=%d: the answer over the split layout differs from the unsplit one's", req.Variant, req.K)
		}
	}
	if ix.blocks.Load() != split {
		t.Fatal("a query over the split layout swapped it again")
	}

	// A band-changing insert publishes a new index with an unsplit layout,
	// and 8 queriers crossing its split count together split it once.
	if _, err := e.Insert([]float64{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	ix2 := e.idx.Load()
	if ix2 == ix || ix2.blocks.Load().SplitCost() == 0 {
		t.Fatal("the band-changing insert did not publish an index with an unsplit layout")
	}
	boxes := make([]*geom.Region, 64) // drawn on the test goroutine: box may call t.Fatal
	for i := range boxes {
		boxes[i] = randomBox(t, rng)
	}
	var wg sync.WaitGroup
	firstSplit := make([]*skyband.Blocks, 8)
	for g := range firstSplit {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := g; ; q++ {
				if b := ix2.blocks.Load(); b.SplitCost() == 0 {
					firstSplit[g] = b
					return
				}
				req := Request{Variant: UTK1, K: 1 + q%8, Region: boxes[q%len(boxes)]}
				if _, err := e.compute(ctx, req, ix2); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, b := range firstSplit {
		if b != ix2.blocks.Load() {
			t.Fatalf("querier %d first saw a split layout other than the one the index holds: split more than once", g)
		}
	}

	// A deep insert (dominated by most of the band) publishes nothing: the
	// index and its split layout stay.
	if _, err := e.Insert([]float64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if e.idx.Load() != ix2 || ix2.blocks.Load() != firstSplit[0] {
		t.Fatal("a deep insert replaced the index or its layout")
	}
}
