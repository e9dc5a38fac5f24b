package skyband

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/scratch"
)

// Op is one update of a batch handed to ApplyOps: an insert carrying its
// record, or a delete carrying the target id.
type Op struct {
	Insert bool
	Record []float64 // insert payload (copied)
	ID     int       // delete target
}

var (
	// ErrUnknownID reports a batched delete whose target is neither live nor
	// an id an earlier insert of the same batch will be assigned.
	ErrUnknownID = errors.New("skyband: batch delete of unknown id")
	// ErrDuplicateDelete reports two deletes of the same id in one batch.
	ErrDuplicateDelete = errors.New("skyband: duplicate delete in batch")
)

// batchDelta is the planned net effect of one non-coalesced op: its record,
// and its dominance relations against the member-set snapshot taken at batch
// start (domMem/domBy) and against the earlier inserts of the same batch
// (domIns/insDomBy). The replay stage turns these precomputed lists into the
// same count transitions the per-op path derives from its per-op member
// scans.
type batchDelta struct {
	insert     bool
	id         int       // delete target
	rec        []float64 // insert: the copy that will be stored; delete: the live record
	sum        float64   // coordinate sum of rec — dominance pruning key
	assignedID int       // insert: id assigned at replay

	domMem   []int // snapshot-member ids this record dominates
	domBy    []int // snapshot-member ids dominating this record (inserts only)
	truncB   bool  // domBy hit its collection cap; replay recounts if it runs short
	insDomBy []int // earlier insert-delta indices whose record dominates this one (inserts only)
	domIns   []int // earlier insert-delta indices whose record this one dominates
}

// minMaintChunk is the smallest member-pass chunk worth fanning out; below
// it the pass runs inline on the caller.
const minMaintChunk = 512

// batchEps32 bounds the relative rounding error of a float64→float32
// conversion; the prescreen's per-pair error bound is derived from it.
const batchEps32 = 1.0 / (1 << 23)

// sumSlack is the sound margin for sum-based dominance pruning: a record
// dominating another has a coordinate sum larger by more than −dim·Eps (each
// dimension tolerates Eps, one must exceed it), and the float64 sums of both
// records carry rounding error well below the relative term. A pair whose
// candidate dominator falls short of the dominated sum by at least the slack
// provably fails geom.Dominates.
func sumSlack(dim int, s float64) float64 {
	return float64(dim)*geom.Eps + (1+math.Abs(s))*4e-12
}

// ApplyOps applies a batch of updates as one unit and returns the assigned
// ids (deletes echo their target id) and per-op effects, positionally
// aligned with ops. The batch is planned first — an insert whose predicted
// id a later delete of the same batch targets is coalesced away with that
// delete (the id is still consumed, keeping assignment aligned with the
// sequential path) — and nothing is mutated until the whole batch validates.
//
// Batches of more than one surviving op take the batch-native path: the
// dominance relations of every op against the member set are computed in a
// single pass over the members (float32 columnar prescreen with exact
// float64 recheck on borderline pairs, chunked across the executor pool when
// one is set), the ops are then replayed in order against the precomputed
// lists, and shadow maintenance runs once at the end with the pacing budget
// of the whole batch — so a batch advances an in-flight repair with at most
// one chunked repair step. Single surviving ops use the per-op path
// unchanged. Both paths apply identical member/count transitions; the
// per-op loop remains the differential oracle for this equivalence.
//
// If an op exhausts the shadow mid-batch (Effect.Rebuilt), the member set is
// recomputed and the precomputed lists go stale; the remaining ops of the
// batch fall back to the per-op cores.
func (d *Dynamic) ApplyOps(ops []Op) ([]int, []Effect, error) {
	start := time.Now()
	defer func() { d.stats.BandMaintenanceNS += uint64(time.Since(start)) }()
	if len(ops) == 0 {
		return nil, nil, nil
	}

	// Plan: validate and coalesce without mutating anything.
	nextID := d.nextID
	var insPos map[int]int   // predicted id -> op index of the insert
	var deleted map[int]bool // delete targets seen so far
	coalesce := make([]bool, len(ops))
	for i, op := range ops {
		if op.Insert {
			if insPos == nil {
				insPos = make(map[int]int, len(ops))
			}
			insPos[nextID] = i
			nextID++
			continue
		}
		if deleted[op.ID] {
			return nil, nil, ErrDuplicateDelete
		}
		j, predicted := 0, false
		if insPos != nil {
			j, predicted = insPos[op.ID]
		}
		if !predicted && !d.Has(op.ID) {
			return nil, nil, ErrUnknownID
		}
		if deleted == nil {
			deleted = make(map[int]bool, len(ops))
		}
		deleted[op.ID] = true
		if predicted {
			coalesce[j] = true
			coalesce[i] = true
		}
	}
	napplied := 0
	for i := range ops {
		if !coalesce[i] {
			napplied++
		}
	}
	d.stats.BatchApplyOps += uint64(napplied)
	d.stats.CoalescedOps += uint64(len(ops) - napplied)

	ids := make([]int, len(ops))
	effs := make([]Effect, len(ops))

	if napplied <= 1 {
		// Singles (and fully coalesced batches) keep the sequential path —
		// there is no pass to share.
		for i, op := range ops {
			switch {
			case coalesce[i] && op.Insert:
				ids[i] = d.SkipID()
			case coalesce[i]:
				ids[i] = op.ID
			case op.Insert:
				ids[i], effs[i] = d.Insert(op.Record)
			default:
				_, eff, _ := d.Delete(op.ID)
				ids[i], effs[i] = op.ID, eff
			}
		}
		return ids, effs, nil
	}

	// Net delta set, in op order. Insert records are copied here; the copy is
	// what replay stores. Delete records are resolved now — a non-coalesced
	// delete always targets a pre-batch id, so the record cannot change
	// before its turn in the replay.
	deltas := make([]batchDelta, 0, napplied)
	for i, op := range ops {
		if coalesce[i] {
			continue
		}
		if op.Insert {
			rec := append([]float64(nil), op.Record...)
			deltas = append(deltas, batchDelta{
				insert:     true,
				rec:        rec,
				sum:        coordSum(rec),
				assignedID: -1,
			})
		} else {
			rec := d.live[op.ID]
			deltas = append(deltas, batchDelta{id: op.ID, rec: rec, sum: coordSum(rec)})
		}
	}

	d.rmBase = d.rmGen
	d.batchMemberPass(deltas)

	// Batch-internal dominance: earlier inserts act as members for every
	// later op (records deleted earlier in the batch are gone by the time a
	// later op applies, so only inserts matter). Dominance implies a larger
	// coordinate sum — up to the per-dimension Eps tolerance and the float
	// rounding of the sums — so most pairs are rejected on the sum alone.
	for v := 1; v < len(deltas); v++ {
		dv := &deltas[v]
		slack := sumSlack(len(dv.rec), dv.sum)
		for u := 0; u < v; u++ {
			du := &deltas[u]
			if !du.insert {
				continue
			}
			s := slack + (1+math.Abs(du.sum))*4e-12
			if dv.insert && du.sum > dv.sum-s && geom.Dominates(du.rec, dv.rec) {
				dv.insDomBy = append(dv.insDomBy, u)
			}
			if dv.sum > du.sum-s && geom.Dominates(dv.rec, du.rec) {
				dv.domIns = append(dv.domIns, u)
			}
		}
	}

	// Replay in op order against the precomputed lists. Stale list entries —
	// members evicted or deleted by earlier ops of the batch — are dropped by
	// the position lookup at use time; members added by earlier ops are
	// covered by the insert cross-lists. An exhaustion recomputes the member
	// set, so everything after it falls back to the per-op cores.
	fallback := false
	di := 0
	for i, op := range ops {
		if coalesce[i] {
			if op.Insert {
				ids[i] = d.SkipID()
			} else {
				ids[i] = op.ID
			}
			continue
		}
		dl := &deltas[di]
		di++
		switch {
		case fallback && op.Insert:
			ids[i], effs[i] = d.applyInsert(op.Record)
		case fallback:
			_, eff, _ := d.applyDelete(op.ID)
			ids[i], effs[i] = op.ID, eff
		case op.Insert:
			ids[i], effs[i] = d.replayInsert(dl, deltas)
		default:
			ids[i], effs[i] = op.ID, d.replayDelete(dl, deltas)
		}
		if effs[i].Rebuilt {
			fallback = true
		}
	}

	// One maintenance step carrying the whole batch's pacing budget.
	d.tickMaintenanceN(napplied)
	return ids, effs, nil
}

// batchMemberPass fills domMem/domBy of every delta from two pruned passes
// over the current member set, chunked across the executor pool when one is
// set. The prunings mirror the per-op early exits, which is what keeps the
// batch path ahead of replaying the ops one at a time:
//
// Pass B collects, per insert delta, the members dominating it — walking
// the members strongest (largest coordinate sum) first, capped at cov plus
// the batch's delete count (replay drops entries that left the member set
// mid-batch; the deletes of the same batch are the dominant staleness
// source). A delta whose cap fills is marked truncated and replay recounts
// it exactly if the capped list runs short — the batch analogue of
// applyInsert breaking its dominator scan at the coverage depth. The shared
// scan stops at the last unsaturated delta, and a delta out-summing every
// remaining member retires with a provably whole list, so its length tracks
// the per-op scan prefixes rather than the member count.
//
// Pass A collects, per delta, the members it dominates — but a member
// dominated by a record inherits all of that record's dominators, so its
// snapshot count is provably at least the delta's threshold: min(dominator
// count, cov) for an insert, the member's own count + 1 for a member
// delete, cov for a non-member delete (which has ≥ cov member dominators by
// the coverage invariant). Entries below the threshold are skipped without
// a dominance test, and a delta whose threshold exceeds every member count
// — a non-admitted insert or non-member delete at full coverage — costs
// nothing, matching the per-op fast paths. The scan runs weakest member
// first: a delta can only dominate members it out-sums, so once every
// remaining member out-sums a delta it is retired, and a typical insert —
// out-summed by nearly the whole band — touches only the few weakest
// buckets. The pruned lists are identical to unpruned ones: only
// provably-non-dominated members are skipped.
//
// Per pair the dominance verdict is prescreened in float32 through a
// columnar copy of the delta records: with diff the float64 difference of
// the two float32 coordinates and errAB a sound bound on the conversion
// error of both operands, diff < −(Eps+errAB) certifies the exact
// coordinate comparison fails, diff ≥ errAB−Eps certifies it holds, and
// diff > Eps+errAB certifies strictness. A verdict is taken from the
// prescreen only when every dimension is certain; any borderline dimension
// sends the pair to geom.Dominates on the exact float64 records, so the
// lists are bit-identical to ones computed with geom.Dominates alone.
//
// Chunks only read the structure; each worker appends (delta, member-id)
// pairs into its own buffer — a per-chunk array persisted on d for pass B,
// a scratch-arena block deep-copied at emit for pass A — so the merge,
// sequential and in chunk order, owns all escaping memory. Chunked pass-B
// output concatenated in chunk order is the same strongest-first prefix the
// sequential scan collects, so pooled and pool-less runs agree bit for bit.
func (d *Dynamic) batchMemberPass(deltas []batchDelta) {
	nEnts := len(d.ents)
	if nEnts == 0 {
		return
	}
	recs := make([][]float64, len(deltas))
	for i := range deltas {
		recs[i] = deltas[i].rec
	}
	cols := NewColumns(recs)
	nd := cols.n
	dim := cols.d

	// Only member removals can stale a collected dominator list, and only
	// deletes of current members (plus the rare mid-batch eviction, which
	// the slack term absorbs) remove members this batch — a non-member
	// never becomes a member mid-batch, so non-member deletes cannot. The
	// cap is a perf knob, not a correctness one: a truncated list that runs
	// short is recounted exactly at replay.
	nMDel := 0
	for i := range deltas {
		if !deltas[i].insert {
			if _, ok := d.pos[deltas[i].id]; ok {
				nMDel++
			}
		}
	}
	bcap := d.cov + nMDel + 4

	// Strongest-first member order: coordinate sums bucketed by a counting
	// sort, high sums first. A dominator out-sums the record it dominates (up
	// to sumSlack), so dominators concentrate in the earliest buckets — Pass
	// B saturates its caps after a short prefix, and a delta out-summing
	// every remaining bucket completes with a provably whole dominator list.
	// NaN sums land in bucket 0 with an infinite bucket maximum, so they are
	// never sum-pruned in either role.
	if cap(d.mpBkt) < nEnts {
		d.mpBkt = make([]uint8, nEnts+nEnts/4)
		d.mpOrd = make([]int, nEnts+nEnts/4)
		d.mpCnt = make([]int32, nEnts+nEnts/4)
	}
	sums := d.entSums
	minS, maxS := math.Inf(1), math.Inf(-1)
	for _, s := range sums {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	nB := nEnts / 16
	if nB < 1 {
		nB = 1
	}
	if nB > 256 {
		nB = 256
	}
	span := maxS - minS
	if !(span > 0) {
		span = 1
	}
	bkt := d.mpBkt[:nEnts]
	starts := make([]int, nB+1)
	bmax := make([]float64, nB)
	bmin := make([]float64, nB)
	for b := range bmax {
		bmax[b] = math.Inf(-1)
		bmin[b] = math.Inf(1)
	}
	for e := range sums {
		s := sums[e]
		b := 0
		if s == s { // NaN sums stay in bucket 0
			b = int(float64(nB) * (maxS - s) / span)
			if b < 0 {
				b = 0
			}
			if b >= nB {
				b = nB - 1
			}
		}
		bkt[e] = uint8(b)
		starts[b+1]++
		if s != s {
			bmax[b] = math.Inf(1)
			bmin[b] = math.Inf(-1)
		} else {
			if s > bmax[b] {
				bmax[b] = s
			}
			if s < bmin[b] {
				bmin[b] = s
			}
		}
	}
	for b := 0; b < nB; b++ {
		starts[b+1] += starts[b]
	}
	ord := d.mpOrd[:nEnts]
	fill := append([]int(nil), starts[:nB]...)
	for e := 0; e < nEnts; e++ {
		b := bkt[e]
		ord[fill[b]] = e
		fill[b]++
	}
	// sufMax[b]: the largest member sum at or after bucket b — the exact
	// bound the sequential Pass B uses to retire deltas early. preMin[b]:
	// the smallest member sum at or before bucket b — the bound Pass A,
	// scanning the buckets in the opposite direction, uses the same way (a
	// NaN member poisons it to −Inf, disabling retirement, so NaNs are
	// never pruned in either role).
	sufMax := make([]float64, nB+1)
	sufMax[nB] = math.Inf(-1)
	for b := nB - 1; b >= 0; b-- {
		sufMax[b] = bmax[b]
		if sufMax[b+1] > sufMax[b] {
			sufMax[b] = sufMax[b+1]
		}
	}
	preMin := make([]float64, nB)
	for b := 0; b < nB; b++ {
		preMin[b] = bmin[b]
		if b > 0 && preMin[b-1] < preMin[b] {
			preMin[b] = preMin[b-1]
		}
	}
	// Per-delta pruning keys. dGate is the dominated-role threshold: a member
	// whose sum does not exceed it provably cannot dominate the delta. dKey
	// is the dominator-role sum. NaN delta sums disable pruning in the
	// respective role.
	dGate := make([]float64, nd)
	dKey := make([]float64, nd)
	for i := range deltas {
		s := deltas[i].sum
		if s != s {
			dGate[i] = math.Inf(-1)
			dKey[i] = math.Inf(1)
			continue
		}
		dGate[i] = s - sumSlack(dim, s)
		dKey[i] = s
	}

	chunk := nEnts
	nChunks := 1
	if d.pool != nil && nEnts > minMaintChunk {
		w := d.pool.Workers()
		if w > 1 {
			chunk = (nEnts + 2*w - 1) / (2 * w)
			if chunk < minMaintChunk {
				chunk = minMaintChunk
			}
			nChunks = (nEnts + chunk - 1) / chunk
		}
	}
	fanned := 0
	runChunks := func(run func(ci int)) {
		if nChunks > 1 {
			g := d.pool.NewGroup(nil)
			for ci := 0; ci < nChunks; ci++ {
				ci := ci
				g.Go(func(context.Context) error { run(ci); return nil })
			}
			g.Wait()
			fanned += nChunks
		} else {
			run(0)
		}
	}
	// thresholds returns the prescreen certainty thresholds for one member:
	// its float32 image is cached columnar on the structure, so only the
	// error bound — which depends on this batch's column scale — is
	// computed here.
	thresholds := func(e int) (tF, tGE float64) {
		errAB := 2 * batchEps32 * (cols.scale + d.entMaxAbs[e])
		return geom.Eps + errAB, errAB - geom.Eps
	}

	// Pass B: capped dominator collection for the insert deltas.
	var insIdx []int
	for i := range deltas {
		if deltas[i].insert {
			insIdx = append(insIdx, i)
		}
	}
	bcount := make([]int, nd)
	if len(insIdx) > 0 {
		for len(d.mpBy) < nChunks {
			d.mpBy = append(d.mpBy, nil)
		}
		bOuts := make([][]int, nChunks)
		runB := func(ci, lo, hi int, seq bool) {
			ar := scratch.Get()
			// Collected (delta, dominator-id) pairs go to a per-chunk buffer
			// persisted on d — the lists can reach len(insIdx)*bcap pairs, far
			// past any arena block, and reusing the backing array keeps the
			// pass allocation-free after warm-up.
			by := d.mpBy[ci][:0]
			// Active deltas sorted by gate, weakest gate first: the moment an
			// entry fails one gate it fails all that follow, so the per-pair
			// skip is a break. Saturation and retirement remove in place,
			// preserving the order. (NaN-sum deltas carry a −Inf gate and
			// sort to the front — never skipped, never retired.)
			act := ar.Ints(len(insIdx))
			act = append(act, insIdx...)
			sort.Slice(act, func(a, b int) bool { return dGate[act[a]] < dGate[act[b]] })
			cnt := ar.Ints(nd)[:nd]
			for i := range cnt {
				cnt[i] = 0
			}
			procEntry := func(e int) {
				if sums[e] <= dGate[act[0]] {
					return
				}
				ent := &d.ents[e]
				e32 := d.ent32[e*dim : (e+1)*dim]
				tF, tGE := thresholds(e)
				for x := 0; x < len(act); x++ {
					di := act[x]
					// A member not out-summing the delta cannot dominate it —
					// nor any delta after it in gate order (NaN sums compare
					// false and are never skipped).
					if sums[e] <= dGate[di] {
						break
					}
					// Does the member dominate the delta? diff = member − delta.
					var bFalse, bUnc, bStrict bool
					for j := 0; j < dim; j++ {
						diff := float64(e32[j]) - float64(cols.cols[j*nd+di])
						if diff < -tF {
							bFalse = true
							break
						}
						if diff >= tGE {
							if diff > tF {
								bStrict = true
							}
						} else {
							bUnc = true
						}
					}
					if bFalse {
						continue
					}
					dom := false
					if !bUnc && bStrict {
						dom = true
					} else {
						dom = geom.Dominates(ent.rec, deltas[di].rec)
					}
					if dom {
						by = append(by, di, ent.id)
						cnt[di]++
						if cnt[di] >= bcap {
							act = append(act[:x], act[x+1:]...)
							x--
						}
					}
				}
			}
			if seq {
				for b := 0; b < nB && len(act) > 0; b++ {
					// Entering a bucket, retire every delta that out-sums all
					// remaining members — a suffix in gate order: its
					// dominator list is complete.
					for len(act) > 0 && sufMax[b] <= dGate[act[len(act)-1]] {
						act = act[:len(act)-1]
					}
					for p := starts[b]; p < starts[b+1] && len(act) > 0; p++ {
						procEntry(ord[p])
					}
				}
			} else {
				for p := lo; p < hi && len(act) > 0; p++ {
					procEntry(ord[p])
				}
			}
			d.mpBy[ci] = by
			bOuts[ci] = by
			scratch.Put(ar)
		}
		if nChunks > 1 {
			runChunks(func(ci int) {
				lo := ci * chunk
				hi := lo + chunk
				if hi > nEnts {
					hi = nEnts
				}
				runB(ci, lo, hi, false)
			})
		} else {
			runB(0, 0, nEnts, true)
		}
		// Merge in two passes over one reused arena: count each delta's capped
		// list first, carve exact-capacity sub-slices, then fill. The lists die
		// with the batch (replay reads them before ApplyOps returns), so the
		// arena is safely recycled next batch, and no per-delta append ever
		// regrows.
		total := 0
		for ci := range bOuts {
			prs := bOuts[ci]
			for t := 0; t < len(prs); t += 2 {
				if bcount[prs[t]] < bcap {
					bcount[prs[t]]++
				}
			}
			total += len(prs) / 2
		}
		if cap(d.mpDom) < total {
			d.mpDom = make([]int, 0, total+total/4)
		}
		off := 0
		for _, di := range insIdx {
			deltas[di].domBy = d.mpDom[off : off : off+bcount[di]]
			off += bcount[di]
		}
		for ci := range bOuts {
			prs := bOuts[ci]
			for t := 0; t < len(prs); t += 2 {
				di := prs[t]
				if len(deltas[di].domBy) < cap(deltas[di].domBy) {
					deltas[di].domBy = append(deltas[di].domBy, prs[t+1])
				}
			}
		}
		for _, di := range insIdx {
			if bcount[di] >= bcap {
				deltas[di].truncB = true
			}
		}
	}

	// Pass A: dominated-member collection, pruned by per-delta count
	// thresholds against the snapshot counts. The counts are snapshot into a
	// contiguous array so the scan reads only cache-dense columns; nothing
	// mutates them until the replay.
	maxCount := 0
	cnts := d.mpCnt[:nEnts]
	for e := range d.ents {
		c := d.ents[e].count
		cnts[e] = int32(c)
		if c > maxCount {
			maxCount = c
		}
	}
	thrA := make([]int, nd)
	var actA []int
	minThr := maxCount + 1
	for i := range deltas {
		switch {
		case deltas[i].insert:
			thrA[i] = bcount[i]
			if thrA[i] > d.cov {
				thrA[i] = d.cov
			}
		default:
			if p, ok := d.pos[deltas[i].id]; ok {
				thrA[i] = d.ents[p].count + 1
			} else {
				thrA[i] = d.cov
			}
		}
		if thrA[i] <= maxCount {
			actA = append(actA, i)
			if thrA[i] < minThr {
				minThr = thrA[i]
			}
		}
	}
	if len(actA) == 0 {
		return
	}
	aOuts := make([][]int, nChunks)
	runA := func(ci, lo, hi int, seq bool) {
		ar := scratch.Get()
		mem := ar.Ints(4*len(actA) + 64)
		// Active deltas sorted by dominator-role sum, strongest first: the
		// moment a member out-sums one delta it out-sums all that follow, so
		// the per-pair skip is a break. Retirement removes a suffix,
		// preserving the order. (NaN-sum deltas carry a +Inf key and sort to
		// the front — never skipped, never retired.)
		act := ar.Ints(len(actA))
		act = append(act, actA...)
		sort.Slice(act, func(a, b int) bool { return dKey[act[a]] > dKey[act[b]] })
		// actMinThr, refreshed as deltas retire: an entry below every active
		// threshold is skipped on one compare.
		actMinThr := maxCount + 1
		refreshBounds := func() {
			actMinThr = maxCount + 1
			for _, di := range act {
				if thrA[di] < actMinThr {
					actMinThr = thrA[di]
				}
			}
		}
		refreshBounds()
		procEntry := func(e int) {
			c := int(cnts[e])
			if c < actMinThr {
				return
			}
			aGate := sums[e] - sumSlack(dim, sums[e])
			if dKey[act[0]] <= aGate {
				return
			}
			e32 := d.ent32[e*dim : (e+1)*dim]
			tF, tGE := thresholds(e)
			for x := 0; x < len(act); x++ {
				di := act[x]
				// A delta not out-summing the member cannot dominate it —
				// nor any delta after it in key order (NaN sums compare
				// false and are never skipped).
				if dKey[di] <= aGate {
					break
				}
				if thrA[di] > c {
					continue
				}
				// Does the delta dominate the member? diff = delta − member.
				var aFalse, aUnc, aStrict bool
				for j := 0; j < dim; j++ {
					diff := float64(cols.cols[j*nd+di]) - float64(e32[j])
					if diff < -tF {
						aFalse = true
						break
					}
					if diff >= tGE {
						if diff > tF {
							aStrict = true
						}
					} else {
						aUnc = true
					}
				}
				if aFalse {
					continue
				}
				dom := false
				if !aUnc && aStrict {
					dom = true
				} else {
					dom = geom.Dominates(deltas[di].rec, d.ents[e].rec)
				}
				if dom {
					mem = append(mem, di, d.ents[e].id)
				}
			}
		}
		if seq {
			for b := nB - 1; b >= 0 && len(act) > 0; b-- {
				// Entering a bucket — the smallest remaining sums — retire
				// every delta out-summed by the whole remainder: it can
				// dominate none of them. (aGate is monotone in the sum, so
				// the remainder's minimum gate is preMin's gate; a NaN
				// member holds preMin at −Inf and retires nothing.)
				g := preMin[b] - sumSlack(dim, preMin[b])
				retired := false
				for len(act) > 0 && dKey[act[len(act)-1]] <= g {
					act = act[:len(act)-1]
					retired = true
				}
				if retired {
					refreshBounds()
				}
				for p := starts[b+1] - 1; p >= starts[b] && len(act) > 0; p-- {
					procEntry(ord[p])
				}
			}
		} else {
			for p := lo; p < hi; p++ {
				procEntry(ord[p])
			}
		}
		aOuts[ci] = append([]int(nil), mem...)
		scratch.Put(ar)
	}
	if nChunks > 1 {
		runChunks(func(ci int) {
			lo := ci * chunk
			hi := lo + chunk
			if hi > nEnts {
				hi = nEnts
			}
			runA(ci, lo, hi, false)
		})
	} else {
		runA(0, 0, nEnts, true)
	}
	for ci := range aOuts {
		prs := aOuts[ci]
		for t := 0; t < len(prs); t += 2 {
			dl := &deltas[prs[t]]
			dl.domMem = append(dl.domMem, prs[t+1])
		}
	}
	d.stats.ParallelMaintenanceChunks += uint64(fanned)
}

// replayInsert is applyInsert driven by precomputed dominance lists instead
// of member-set scans: the dominator count comes from the snapshot
// dominators still in the member set plus the earlier batch inserts that
// made it in (both filtered through the position map, exactly the members a
// per-op scan would see), and the count bumps go to the same surviving set.
// All thresholds and transitions mirror applyInsert.
func (d *Dynamic) replayInsert(dl *batchDelta, deltas []batchDelta) (int, Effect) {
	id := d.nextID
	d.nextID++
	dl.assignedID = id
	d.live[id] = dl.rec
	d.stats.Inserts++
	var eff Effect

	c := 0
	if d.rmGen == d.rmBase {
		// No member has left the set since batch start, so every snapshot
		// dominator still counts — no per-id liveness lookups needed.
		c = len(dl.domBy)
		if c > d.cov {
			c = d.cov
		}
	} else {
		for _, mid := range dl.domBy {
			if c >= d.cov {
				break
			}
			if _, ok := d.pos[mid]; ok {
				c++
			}
		}
	}
	for _, u := range dl.insDomBy {
		if c >= d.cov {
			break
		}
		if _, ok := d.pos[deltas[u].assignedID]; ok {
			c++
		}
	}
	if c < d.cov && dl.truncB {
		// The capped dominator list lost more entries to mid-batch evictions
		// than its slack covered; recount exactly against the live member set
		// — the same scan applyInsert runs, with the same early exit.
		c = 0
		for i := range d.ents {
			if geom.Dominates(d.ents[i].rec, dl.rec) {
				c++
				if c >= d.cov {
					break
				}
			}
		}
	}

	for _, mid := range dl.domMem {
		d.bumpDominated(mid, &eff)
	}
	for _, u := range dl.domIns {
		d.bumpDominated(deltas[u].assignedID, &eff)
	}

	if c < d.cov {
		d.addEntry(dynEntry{id: id, rec: dl.rec, count: c})
		if c < d.k {
			d.band++
			eff.BandChanged = true
			eff.InBand = true
		}
	} else if d.repairing {
		d.pendIns = append(d.pendIns, id)
	}
	return id, eff
}

// bumpDominated adds one dominator to the member with the given id (a no-op
// when the id has left the member set), applying applyInsert's demotion and
// eviction transitions.
func (d *Dynamic) bumpDominated(mid int, eff *Effect) {
	i, ok := d.pos[mid]
	if !ok {
		return
	}
	e := &d.ents[i]
	e.count++
	if e.count == d.k {
		d.band--
		d.stats.Demotions++
		eff.BandChanged = true
	}
	if e.count >= d.capK {
		d.stats.ShadowEvictions++
		d.removeAt(i)
	}
}

// replayDelete is applyDelete driven by precomputed dominance lists; same
// filtering discipline as replayInsert, same transitions as applyDelete. In
// the non-member branch no promotion is possible (every member the departed
// record dominates has count above the coverage depth), matching the per-op
// fast path, and at full coverage the dominated set is provably empty so the
// scan is skipped entirely.
func (d *Dynamic) replayDelete(dl *batchDelta, deltas []batchDelta) Effect {
	id := dl.id
	delete(d.live, id)
	d.stats.Deletes++
	if d.repairing {
		d.repairDels++
	}
	var eff Effect

	i, wasMember := d.pos[id]
	if !wasMember {
		if d.cov < d.capK {
			for _, mid := range dl.domMem {
				d.dropDominator(mid, nil)
			}
			for _, u := range dl.domIns {
				d.dropDominator(deltas[u].assignedID, nil)
			}
		}
		return eff
	}

	memberCount := d.ents[i].count
	if memberCount < d.k {
		d.band--
		eff.InBand = true
		eff.BandChanged = true
	}
	d.removeAt(i)

	for _, mid := range dl.domMem {
		d.dropDominator(mid, &eff)
	}
	for _, u := range dl.domIns {
		d.dropDominator(deltas[u].assignedID, &eff)
	}

	if memberCount < d.cov {
		d.cov--
		if d.cov < d.k {
			d.exhaust(&eff)
		} else {
			d.maybeStartRepair()
		}
	}
	return eff
}

// dropDominator removes one dominator from the member with the given id (a
// no-op when the id has left the member set). With eff non-nil — the
// member-delete path — a shadow member crossing below depth k is promoted
// into the band, mirroring applyDelete.
func (d *Dynamic) dropDominator(mid int, eff *Effect) {
	i, ok := d.pos[mid]
	if !ok {
		return
	}
	e := &d.ents[i]
	e.count--
	if eff != nil && e.count == d.k-1 {
		d.band++
		d.stats.Promotions++
		eff.BandChanged = true
	}
}
