package skyband

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// applyOneAtATime is the oracle for a batch: the same ops as batches of one
// on a twin structure, with the batch's coalescing plan (a coalesced insert
// only consumes its id, its delete does nothing).
func applyOneAtATime(t *testing.T, d *Dynamic, ops []Op) ([]int, []Effect) {
	t.Helper()
	next := d.NextID()
	own := map[int]int{} // predicted id -> op index of the insert
	coalesced := make([]bool, len(ops))
	for i, op := range ops {
		if op.Insert {
			own[next] = i
			next++
		} else if j, ok := own[op.ID]; ok {
			coalesced[i], coalesced[j] = true, true
		}
	}
	ids := make([]int, len(ops))
	effs := make([]Effect, len(ops))
	for i, op := range ops {
		switch {
		case coalesced[i] && op.Insert:
			ids[i] = d.SkipID()
		case coalesced[i]:
			ids[i] = op.ID
		case op.Insert:
			ids[i], effs[i] = d.Insert(op.Record)
		default:
			wasBand := d.InBand(op.ID)
			_, eff, ok := d.Delete(op.ID)
			if !ok || eff.InBand != wasBand {
				t.Fatalf("oracle: delete %d ok=%v InBand=%v, was in band %v", op.ID, ok, eff.InBand, wasBand)
			}
			ids[i], effs[i] = op.ID, eff
		}
	}
	return ids, effs
}

// batchVersusSingles applies one batch to twin structures — one ApplyOps call
// on c.d against one op at a time on seq — and requires them to agree on
// everything a caller can observe: assigned ids, the band's ids and exact
// counts, the OR of BandChanged over the batch (what advances the engine's
// epoch) and every op's InBand (what decides its cache probes). Which op of a
// delete run carries a re-cover pass's BandChanged may differ; nothing reads
// that.
func batchVersusSingles(t *testing.T, c *churn, seq *Dynamic, ops []Op, ctxt string) {
	t.Helper()
	wantIDs, wantEffs := applyOneAtATime(t, seq, ops)
	gotIDs, gotEffs, err := c.d.ApplyOps(ops)
	if err != nil {
		t.Fatalf("%s: %v", ctxt, err)
	}
	if !slices.Equal(gotIDs, wantIDs) {
		t.Fatalf("%s: ids %v != %v", ctxt, gotIDs, wantIDs)
	}
	var gotChanged, wantChanged bool
	for i := range ops {
		gotChanged = gotChanged || gotEffs[i].BandChanged
		wantChanged = wantChanged || wantEffs[i].BandChanged
		if gotEffs[i].InBand != wantEffs[i].InBand {
			t.Fatalf("%s: op %d (%+v) InBand %v, one at a time %v", ctxt, i, ops[i], gotEffs[i].InBand, wantEffs[i].InBand)
		}
	}
	if gotChanged != wantChanged {
		t.Fatalf("%s: BandChanged %v, one at a time %v", ctxt, gotChanged, wantChanged)
	}
	if got, want := describe(bandCounts(c.d)), describe(bandCounts(seq)); got != want {
		t.Fatalf("%s: band\n got %s\nwant %s", ctxt, got, want)
	}
	c.mirror(ops, gotIDs)
	checkInvariants(t, c.d, ctxt)
	checkInvariants(t, seq, ctxt+" (one at a time)")
	checkLive(t, seq, c.live, ctxt)
}

// churnVersusSingles runs batchVersusSingles over random batches.
func churnVersusSingles(t *testing.T, kind dataset.Kind, n, dim, k int, grid float64, seed int64, batches int, size func(*churn) int) DynamicStats {
	t.Helper()
	c := newChurn(t, kind, n, dim, k, grid, seed)
	seq := newChurn(t, kind, n, dim, k, grid, seed).d
	for b := 0; b < batches; b++ {
		ops := c.batch(size(c))
		batchVersusSingles(t, c, seq, ops, fmt.Sprintf("%v d=%d k=%d seed %d batch %d (%d ops)", kind, dim, k, seed, b, len(ops)))
	}
	return c.d.Stats()
}

// TestApplyOpsBitExactDifferential pins ApplyOps(batch) ≡ the same ops one at
// a time across dimensions 2–5 and batch sizes 1–256 of mixed
// insert/delete/coalesced ops.
func TestApplyOpsBitExactDifferential(t *testing.T) {
	trials, batches := 20, 12
	if testing.Short() {
		trials, batches = 6, 6
	}
	for trial := 0; trial < trials; trial++ {
		dim, k := 2+trial%4, 1+trial%7
		size := func(c *churn) int { return []int{1, 2, 3, 5, 8, 16, 47, 64, 129, 256}[c.rng.Intn(10)] }
		churnVersusSingles(t, dataset.IND, 60+10*trial, dim, k, 0, int64(1000+trial), batches, size)
	}
}

// TestApplyOpsObservablesDifferentialWithRepair is the same differential
// where re-cover passes do the work: anticorrelated data snapped to a grid
// (wide fences, ties), delete-heavy entry-biased batches, so runs of deletes
// open several covers before the one pass the batch gets — including deletes
// of records that lost their cover earlier in the same run.
func TestApplyOpsObservablesDifferentialWithRepair(t *testing.T) {
	trials, batches := 12, 16
	if testing.Short() {
		trials, batches = 4, 8
	}
	var st DynamicStats
	for trial := 0; trial < trials; trial++ {
		dim, k := 2+trial%3, 1+trial%5
		size := func(c *churn) int { return 8 + c.rng.Intn(56) }
		s := churnVersusSingles(t, dataset.ANTI, 150+20*trial, dim, k, 16, int64(7000+trial), batches, size)
		st.Repairs += s.Repairs
		st.RepairSteps += s.RepairSteps
		st.Promotions += s.Promotions
	}
	if st.Repairs == 0 || st.RepairSteps == 0 || st.Promotions == 0 {
		t.Fatalf("the re-cover pass was never exercised: %+v", st)
	}

	// The case random churn does not reach: a record orphaned earlier in a run
	// of deletes has become a band entry by the time the same run deletes it.
	// On a chain (a total order) the band is the top k, the fence the next
	// record and everything below is covered by it; deleting top-down makes
	// every delete but the first k hit exactly that case.
	for k := 1; k <= 3; k++ {
		chain := make([][]float64, 12)
		for i := range chain {
			chain[i] = []float64{float64(i), float64(i / 2)}
		}
		c, seq := churnOver(t, chain, k), churnOver(t, chain, k).d
		var ops []Op
		for id := len(chain) - 1; id >= 2; id-- {
			ops = append(ops, Op{ID: id})
		}
		batchVersusSingles(t, c, seq, ops, fmt.Sprintf("chain k=%d", k))
	}
}

// TestApplyOpsSingleMaintenanceStep pins the deferred-maintenance contract on
// the batch shape the HTTP layer sends (every delete before every insert): a
// run of deletes — here all of entries, the deletes that open covers — costs
// one re-cover pass, where the same deletes one at a time pay one pass per
// opened cover. (Only a delete of a record orphaned earlier in the same run
// with no other fence entry over it may bring the pass forward.)
func TestApplyOpsSingleMaintenanceStep(t *testing.T) {
	c := newChurn(t, dataset.IND, 400, 3, 4, 0, 11)
	seq := newChurn(t, dataset.IND, 400, 3, 4, 0, 11).d
	for b := 0; b < 8; b++ {
		var ops []Op
		for _, i := range c.rng.Perm(len(c.d.ents))[:16] {
			ops = append(ops, Op{ID: c.d.ents[i].id})
		}
		for i := 0; i < 16; i++ {
			ops = append(ops, Op{Insert: true, Record: c.record()})
		}
		before := c.d.Stats().Repairs
		if _, _, err := c.d.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
		if passes := c.d.Stats().Repairs - before; passes > 1 {
			t.Fatalf("batch %d: %d re-cover passes for one run of deletes", b, passes)
		}
		applyOneAtATime(t, seq, ops)
		checkInvariants(t, c.d, fmt.Sprintf("batch %d", b))
	}
	if got, single := c.d.Stats().Repairs, seq.Stats().Repairs; got == 0 || got >= single {
		t.Fatalf("%d re-cover passes batched, %d one at a time: the scenario pins nothing", got, single)
	}
}

// TestApplyOpsValidation pins the batch-level error contract: a bad batch is
// rejected atomically, leaving the structure untouched.
func TestApplyOpsValidation(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 30, 3, 7)
	d, err := NewDynamic(recs, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(describe(bandCounts(d)), d.NextID(), d.Len())

	if _, _, err := d.ApplyOps([]Op{{Insert: true, Record: []float64{1, 2, 3}}, {ID: 9999}}); err != ErrUnknownID {
		t.Fatalf("unknown id: got %v", err)
	}
	if _, _, err := d.ApplyOps([]Op{{ID: 3}, {ID: 3}}); err != ErrDuplicateDelete {
		t.Fatalf("duplicate delete: got %v", err)
	}
	// Delete of an id a later insert would predict is unknown at its position.
	if _, _, err := d.ApplyOps([]Op{{ID: d.NextID()}, {Insert: true, Record: []float64{1, 2, 3}}}); err != ErrUnknownID {
		t.Fatalf("forward predicted id: got %v", err)
	}
	if after := fmt.Sprint(describe(bandCounts(d)), d.NextID(), d.Len()); after != before {
		t.Fatalf("rejected batch mutated the structure:\n before %s\n after  %s", before, after)
	}
	checkInvariants(t, d, "after rejected batches")

	// Coalesced churn pair: net no-op on the record population, ids aligned.
	next := d.NextID()
	ids, effs, err := d.ApplyOps([]Op{
		{Insert: true, Record: []float64{0.5, 0.5, 0.5}},
		{ID: next},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != next || ids[1] != next {
		t.Fatalf("coalesced pair ids %v, want both %d", ids, next)
	}
	if effs[0] != (Effect{}) || effs[1] != (Effect{}) {
		t.Fatalf("coalesced pair produced effects %v", effs)
	}
	if d.Has(next) {
		t.Fatal("coalesced insert went live")
	}
	if d.NextID() != next+1 {
		t.Fatalf("coalesced insert did not consume its id: next %d, want %d", d.NextID(), next+1)
	}
	if st := d.Stats(); st.CoalescedOps != 2 || st.BatchApplyOps != 0 {
		t.Fatalf("coalesced pair counted as %d coalesced, %d applied", st.CoalescedOps, st.BatchApplyOps)
	}
}

// TestPlanThenApply pins the split of ApplyOps: Plan fixes the ids (the ones
// ApplyOps assigns on a twin) and mutates nothing, Apply of that plan
// assigns exactly those ids, and a plan made before another mutation is
// refused.
func TestPlanThenApply(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 300, 3, 7)
	d, err := NewDynamic(recs, 4)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewDynamic(recs, 4)
	if err != nil {
		t.Fatal(err)
	}
	next := d.NextID()
	ops := []Op{
		{Insert: true, Record: []float64{2, 2, 2}},
		{ID: 5},
		{Insert: true, Record: []float64{0.4, 0.4, 0.4}},
		{ID: next + 1}, // coalesces with the second insert
		{Insert: true, Record: []float64{1.5, 1.6, 1.7}},
	}
	before := fmt.Sprint(describe(bandCounts(d)), d.NextID(), d.Len(), d.Stats().BatchApplyOps)
	p, err := d.Plan(ops)
	if err != nil {
		t.Fatal(err)
	}
	if after := fmt.Sprint(describe(bandCounts(d)), d.NextID(), d.Len(), d.Stats().BatchApplyOps); after != before {
		t.Fatalf("Plan mutated the structure:\n before %s\n after  %s", before, after)
	}
	wantIDs, wantEffs, err := twin.ApplyOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{next, 5, next + 1, next + 1, next + 2}; !slices.Equal(p.IDs(), want) || !slices.Equal(wantIDs, want) {
		t.Fatalf("planned ids %v, ApplyOps ids %v, want %v", p.IDs(), wantIDs, want)
	}
	if effs := d.Apply(p); !slices.Equal(effs, wantEffs) || d.NextID() != twin.NextID() || !d.Has(next+2) || d.Has(next+1) {
		t.Fatalf("Apply: effects %v, next id %d; ApplyOps on the twin: %v, %d", effs, d.NextID(), wantEffs, twin.NextID())
	}
	checkInvariants(t, d, "after Apply")

	stale, err := d.Plan([]Op{{Insert: true, Record: []float64{0.1, 0.2, 0.3}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ApplyOps([]Op{{ID: 7}}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply of a plan made before another mutation did not panic")
		}
	}()
	d.Apply(stale)
}
