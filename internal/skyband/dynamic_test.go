package skyband

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// snap rounds every coordinate down to a multiple of 1/grid, so exact ties
// and duplicates occur (grid 0 leaves the records alone).
func snap(recs [][]float64, grid float64) [][]float64 {
	if grid == 0 {
		return recs
	}
	for _, rec := range recs {
		for j, v := range rec {
			rec[j] = math.Floor(v*grid) / grid
		}
	}
	return recs
}

// churn drives a Dynamic and a live-record mirror of it with the update
// shapes the property suite, the differentials and the benchmarks share.
type churn struct {
	rng  *rand.Rand
	d    *Dynamic
	dim  int
	grid float64
	live map[int][]float64
}

func newChurn(t testing.TB, kind dataset.Kind, n, dim, k int, grid float64, seed int64) *churn {
	t.Helper()
	c := churnOver(t, snap(dataset.Synthetic(kind, n, dim, seed), grid), k)
	c.rng, c.dim, c.grid = rand.New(rand.NewSource(seed)), dim, grid
	return c
}

// churnOver is a churn over explicit records, for callers that bring their
// own ops (it has no rng to draw any).
func churnOver(t testing.TB, recs [][]float64, k int) *churn {
	t.Helper()
	d, err := NewDynamic(recs, k)
	if err != nil {
		t.Fatal(err)
	}
	c := &churn{d: d, live: map[int][]float64{}}
	for id, rec := range recs {
		c.live[id] = slices.Clone(rec)
	}
	return c
}

// record draws an insert payload: usually fresh, one time in five an exact
// duplicate of a live record.
func (c *churn) record() []float64 {
	if len(c.d.ids) > 0 && c.rng.Intn(5) == 0 {
		return slices.Clone(c.d.recs[c.rng.Intn(len(c.d.ids))])
	}
	rec := make([]float64, c.dim)
	for j := range rec {
		rec[j] = c.rng.Float64()
	}
	return snap([][]float64{rec}, c.grid)[0]
}

// victim draws a delete target not in taken: half the time an entry (band or
// fence — the deletes that do work), otherwise any live record. ok is false
// when nothing is left to delete.
func (c *churn) victim(taken map[int]bool) (id int, ok bool) {
	for try := 0; try < 64 && len(taken) < len(c.d.ids); try++ {
		if len(c.d.ents) > 0 && c.rng.Intn(2) == 0 {
			id = c.d.ents[c.rng.Intn(len(c.d.ents))].id
		} else {
			id = c.d.ids[c.rng.Intn(len(c.d.ids))]
		}
		if !taken[id] {
			return id, true
		}
	}
	return 0, false
}

// batch builds size ops: inserts, deletes of live ids, and now and then a
// delete of an id the batch itself inserts (a coalesced pair).
func (c *churn) batch(size int) []Op {
	ops := make([]Op, 0, size)
	taken := map[int]bool{}
	next := c.d.NextID()
	var own []int
	for len(ops) < size {
		switch roll := c.rng.Intn(10); {
		case roll == 0 && len(own) > 0:
			if id := own[c.rng.Intn(len(own))]; !taken[id] {
				taken[id] = true
				ops = append(ops, Op{ID: id})
			}
		case roll < 5:
			if id, ok := c.victim(taken); ok {
				taken[id] = true
				ops = append(ops, Op{ID: id})
			}
		default:
			ops = append(ops, Op{Insert: true, Record: c.record()})
			own = append(own, next)
			next++
		}
	}
	return ops
}

// mirror applies a batch's net effect to the live mirror.
func (c *churn) mirror(ops []Op, ids []int) {
	for i, op := range ops {
		if op.Insert {
			c.live[ids[i]] = slices.Clone(op.Record)
		}
	}
	for _, op := range ops {
		if !op.Insert {
			delete(c.live, op.ID)
		}
	}
}

// TestDynamicMatchesBruteForce is the property suite: over IND/ANTI/COR ×
// d ∈ {2,3,4} × k ∈ {1,4,10}, with grid-snapped ties and exact duplicates,
// checkInvariants must hold after every single op of a stream of inserts each
// followed by 1–3 entry-biased deletes, and after every batch of interleaved
// inserts, deletes and coalesced insert→delete pairs.
func TestDynamicMatchesBruteForce(t *testing.T) {
	steps, batches := 60, 12
	if testing.Short() {
		steps, batches = 20, 4
	}
	var st DynamicStats
	for ki, kind := range []dataset.Kind{dataset.IND, dataset.ANTI, dataset.COR} {
		for dim := 2; dim <= 4; dim++ {
			for _, k := range []int{1, 4, 10} {
				grid := []float64{0, 8, 32}[(ki+dim+k)%3]
				name := fmt.Sprintf("%v/d=%d/k=%d/grid=%g", kind, dim, k, grid)
				c := newChurn(t, kind, 90+10*dim, dim, k, grid, int64(100*ki+10*dim+k))
				checkInvariants(t, c.d, name+" construction")
				for step := 0; step < steps; step++ {
					rec := c.record()
					id, _ := c.d.Insert(rec)
					c.live[id] = rec
					checkInvariants(t, c.d, fmt.Sprintf("%s step %d insert %d", name, step, id))
					for n := 1 + c.rng.Intn(3); n > 0; n-- {
						id, ok := c.victim(nil)
						if !ok {
							break
						}
						wasBand := c.d.InBand(id)
						if _, eff, ok := c.d.Delete(id); !ok || eff.InBand != wasBand {
							t.Fatalf("%s step %d: delete %d ok=%v InBand=%v, was in band %v", name, step, id, ok, eff.InBand, wasBand)
						}
						delete(c.live, id)
						checkInvariants(t, c.d, fmt.Sprintf("%s step %d delete %d", name, step, id))
					}
				}
				for b := 0; b < batches; b++ {
					ops := c.batch(1 + c.rng.Intn(48))
					ids, _, err := c.d.ApplyOps(ops)
					if err != nil {
						t.Fatalf("%s batch %d: %v", name, b, err)
					}
					c.mirror(ops, ids)
					checkInvariants(t, c.d, fmt.Sprintf("%s batch %d", name, b))
				}
				checkLive(t, c.d, c.live, name)
				s := c.d.Stats()
				if s.Exhaustions != 0 || s.Rebuilds != 0 {
					t.Fatalf("%s: retired counters moved: %+v", name, s)
				}
				st.Promotions += s.Promotions
				st.Demotions += s.Demotions
				st.ShadowEvictions += s.ShadowEvictions
				st.Repairs += s.Repairs
				st.CoalescedOps += s.CoalescedOps
			}
		}
	}
	// The suite must reach every transition, not just covered churn.
	if st.Promotions == 0 || st.Demotions == 0 || st.ShadowEvictions == 0 || st.Repairs == 0 || st.CoalescedOps == 0 {
		t.Fatalf("a transition was never exercised: %+v", st)
	}
}

// TestDynamicSupersetConstruction checks the constructor's sweep against two
// independent oracles — BBS over a bulk-loaded R-tree and the naive O(n²)
// dominator count — band and exact counts, and the full invariant straight
// after construction: on the three distributions, on grid data with exact
// ties and duplicates, and on collections smaller than k.
func TestDynamicSupersetConstruction(t *testing.T) {
	type input struct {
		name string
		recs [][]float64
	}
	var inputs []input
	for _, kind := range []dataset.Kind{dataset.IND, dataset.COR, dataset.ANTI} {
		for dim := 2; dim <= 5; dim++ {
			inputs = append(inputs, input{fmt.Sprintf("%v/d=%d", kind, dim), dataset.Synthetic(kind, 300, dim, int64(dim))})
		}
	}
	grid := snap(dataset.Synthetic(dataset.IND, 300, 3, 11), 8)
	inputs = append(inputs,
		input{"grid", append(grid, grid[:40]...)}, // ties, and 40 exact duplicates
		input{"n=1", [][]float64{{0.5, 0.5}}},
		input{"n=3", [][]float64{{3, 3}, {2, 2}, {1, 4}}},
	)
	for _, in := range inputs {
		for _, k := range []int{1, 4, 10} {
			ctxt := fmt.Sprintf("%s/k=%d", in.name, k)
			d, err := NewDynamic(in.recs, k)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, d, ctxt)

			naive := map[int]int{}
			for i, q := range in.recs {
				c := 0
				for _, p := range in.recs {
					if geom.Dominates(p, q) {
						c++
					}
				}
				if c < k {
					naive[i] = c
				}
			}
			if got, want := describe(bandCounts(d)), describe(naive); got != want {
				t.Fatalf("%s: band %s != naive %d-skyband %s", ctxt, got, k, want)
			}

			tree, err := rtree.BulkLoad(in.recs, rtree.DefaultFanout)
			if err != nil {
				t.Fatal(err)
			}
			bbs := KSkyband(tree, k)
			slices.Sort(bbs)
			if got, _, _ := d.Band(); !slices.Equal(slices.Sorted(slices.Values(got)), bbs) {
				t.Fatalf("%s: band %v != BBS %d-skyband %v", ctxt, got, k, bbs)
			}
		}
	}
}

// TestDynamicShadowExhaustion replays the scenario that used to exhaust the
// shadow band — peeling the skyline-most band entry over and over — and a
// second peel that takes whole layers (band and fence) per batch: the band
// stays exact after every step and nothing is ever rebuilt.
func TestDynamicShadowExhaustion(t *testing.T) {
	c := newChurn(t, dataset.IND, 300, 3, 3, 0, 9)
	for i := 0; i < 120; i++ {
		ids, _, _ := c.d.Band()
		if _, eff, ok := c.d.Delete(ids[0]); !ok || !eff.InBand || !eff.BandChanged {
			t.Fatalf("peel %d: delete of band entry %d reported ok=%v %+v", i, ids[0], ok, eff)
		}
		checkInvariants(t, c.d, fmt.Sprintf("peel %d", i))
	}
	for layer := 0; c.d.Len() > 0; layer++ {
		ops := make([]Op, len(c.d.ents))
		for i, e := range c.d.ents {
			ops[i] = Op{ID: e.id}
		}
		if _, _, err := c.d.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, c.d, fmt.Sprintf("layer %d", layer))
	}
	if st := c.d.Stats(); st.Promotions == 0 || st.Repairs == 0 || st.Exhaustions != 0 || st.Rebuilds != 0 {
		t.Fatalf("peel stats %+v", st)
	}
	id, eff := c.d.Insert([]float64{2, 2, 2})
	if !eff.InBand {
		t.Fatalf("insert %d into an empty structure is not in the band", id)
	}
	checkInvariants(t, c.d, "insert after the last layer")
}

// TestReseedMatchesRebuild pins order independence where it is load-bearing:
// a structure restored from State() — band, fence and covers rebuilt from
// the live records — and one built from scratch over the same live records
// hold the same entries as the structure that got there by churn, and all
// three stay in step under further updates.
func TestReseedMatchesRebuild(t *testing.T) {
	c := newChurn(t, dataset.ANTI, 300, 3, 3, 16, 78)
	same := func(ctxt string, others ...*Dynamic) {
		t.Helper()
		for i, o := range others {
			checkInvariants(t, o, fmt.Sprintf("%s twin %d", ctxt, i))
			if got, want := describe(bandCounts(o)), describe(bandCounts(c.d)); got != want {
				t.Fatalf("%s twin %d: band %s != %s", ctxt, i, got, want)
			}
			if got, want := o.Stats().ShadowSize, c.d.Stats().ShadowSize; got != want {
				t.Fatalf("%s twin %d: fence of %d, want %d", ctxt, i, got, want)
			}
		}
	}
	for round := 0; round < 6; round++ {
		for b := 0; b < 5; b++ {
			ops := c.batch(24)
			ids, _, err := c.d.ApplyOps(ops)
			if err != nil {
				t.Fatal(err)
			}
			c.mirror(ops, ids)
		}
		restored, err := RestoreDynamic(c.d.State())
		if err != nil {
			t.Fatal(err)
		}
		st := c.d.State()
		fresh, err := NewDynamic(st.LiveRecs, st.K)
		if err != nil {
			t.Fatal(err)
		}
		// fresh numbers its records 0..n-1; compare it on sizes and on the
		// band's records instead of ids.
		checkInvariants(t, fresh, "fresh")
		if fs, cs := fresh.Stats(), c.d.Stats(); fs.SupersetSize != cs.SupersetSize || fs.ShadowSize != cs.ShadowSize {
			t.Fatalf("round %d: fresh build holds %d+%d entries, churned %d+%d", round, fs.SupersetSize, fs.ShadowSize, cs.SupersetSize, cs.ShadowSize)
		}
		same(fmt.Sprintf("round %d", round), restored)
		ops := c.batch(32)
		ids, effs, err := c.d.ApplyOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		rids, reffs, err := restored.ApplyOps(ops)
		if err != nil || !slices.Equal(rids, ids) || !slices.Equal(reffs, effs) {
			t.Fatalf("round %d: restored twin answered %v %v (%v), original %v %v", round, rids, reffs, err, ids, effs)
		}
		c.mirror(ops, ids)
		same(fmt.Sprintf("round %d after the batch", round), restored)
	}
	checkLive(t, c.d, c.live, "final")
}

// TestDynamicRoundedSums pins the strongest-first order where the coordinate
// sum cannot carry it: at magnitude 1e17 these four records — a chain, listed
// weakest first — all round to the same sum, so construction and the re-cover
// pass must fall back on the coordinates to seat each dominator first.
func TestDynamicRoundedSums(t *testing.T) {
	chain := [][]float64{{1e17, 0}, {1e17, 1}, {1e17, 2}, {1e17, 3}}
	if coordSum(chain[0]) != coordSum(chain[3]) {
		t.Fatal("the sums differ; the scenario pins nothing")
	}
	d, err := NewDynamic(chain, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, d, "construction")
	// Deleting the top two orphans the bottom two at once.
	if _, _, err := d.ApplyOps([]Op{{ID: 3}, {ID: 2}}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, d, "after the deletes")
}

func TestDynamicValidation(t *testing.T) {
	recs := [][]float64{{1, 2}, {2, 1}}
	if _, err := NewDynamic(recs, 0); err == nil {
		t.Error("k=0 accepted")
	}
	dyn, err := NewDynamic(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := dyn.Delete(99); ok {
		t.Error("delete of unknown id succeeded")
	}
	if id, _ := dyn.Insert([]float64{3, 3}); id != 2 {
		t.Errorf("first insert got id %d, want 2", id)
	}
	if dyn.Len() != 3 || !dyn.Has(2) || dyn.Has(99) {
		t.Error("liveness bookkeeping wrong after insert")
	}
	for name, bad := range map[string]func(st *DynamicState){
		"band depth of 0":            func(st *DynamicState) { st.K = 0 },
		"repeated live id":           func(st *DynamicState) { st.LiveIDs[1] = st.LiveIDs[0] },
		"live id past the allocator": func(st *DynamicState) { st.LiveIDs[0] = st.NextID },
		"record missing":             func(st *DynamicState) { st.LiveRecs = st.LiveRecs[1:] },
	} {
		st := dyn.State()
		bad(st)
		if _, err := RestoreDynamic(st); err == nil {
			t.Errorf("a state with a %s restored", name)
		}
	}
}

func TestDynamicSkipID(t *testing.T) {
	dyn, err := NewDynamic([][]float64{{1, 2}, {2, 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id := dyn.SkipID(); id != 2 {
		t.Fatalf("SkipID returned %d, want 2", id)
	}
	if dyn.Has(2) {
		t.Fatal("skipped id reported live")
	}
	if id, _ := dyn.Insert([]float64{3, 3}); id != 3 {
		t.Fatalf("insert after SkipID got id %d, want 3", id)
	}
}
