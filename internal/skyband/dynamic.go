package skyband

import (
	"errors"
	"math"
	"sort"

	"repro/internal/exec"
	"repro/internal/geom"
)

// Dynamic maintains the classic k-skyband of a mutable record collection
// under inserts and deletes, in the style of fully dynamic skyband structures
// for uncertain top-k processing (Patil et al.): only the skyband-style
// superset needs dynamization, because the region-specific r-dominance graph
// is rebuilt per query anyway.
//
// The structure tracks a member set deeper than the band it serves: every
// live record whose exact dominator count is below an eviction cap
// capK = k + shadowDepth. Members with count < k form the band (the exact
// classic k-skyband); members with count in [k, capK) form the shadow band —
// near-skyband records retained so that deletions can promote replacements
// locally instead of rescanning the dataset.
//
// Exactness rests on two facts, both consequences of the transitivity and
// strictness of dominance (a dominator of q has strictly fewer dominators
// than q):
//
//  1. Every dominator of a member is itself a member, so member counts can
//     be maintained exactly by adjusting them against each inserted or
//     deleted record.
//  2. Counting dominators of a probe record within the member set yields
//     min(true count, coverage) exactly, so membership decisions on insert
//     need no access to non-members.
//
// Deletions erode the guarantee from the bottom: removing a member with
// count c may leave some untracked record (count ≥ coverage before the
// delete) with one dominator fewer, so the coverage depth — the count below
// which every live record is guaranteed to be a member — drops by one, but
// only when c was below the current coverage (otherwise every record the
// deletion touches still has at least coverage dominators). When coverage
// would drop below k the band itself is no longer trustworthy and the
// structure falls back to a recomputation over the live records, restoring
// coverage to capK. A deeper shadow (larger shadowDepth) buys more
// skyline-area deletions between rebuilds.
//
// Two opt-in mechanisms bound the worst case under sustained churn:
//
//   - EnableIncrementalRepair spreads the coverage restoration over many
//     updates: when coverage erodes into the lower half of the shadow, a
//     background scan screens the non-member population in chunks against
//     the (exact-count) member set, and on completion splices the surviving
//     candidates back in at a depth discounted by the deletes that ran
//     concurrently with the scan. Exhaustion then usually finds a repair in
//     flight and drains it instead of rescanning from scratch.
//
//   - EnableAdaptiveShadow resizes the shadow with the workload: the depth
//     doubles when exhaustions arrive faster than a frequency threshold
//     (making future exhaustions geometrically rarer) and halves back toward
//     the configured base after long idle stretches.
//
// Dynamic is not safe for concurrent use; callers serialize access.
type Dynamic struct {
	k    int // band depth served to queries
	capK int // retention depth: members are records with count < capK
	cov  int // coverage: every live record with count < cov is a member

	live   map[int][]float64 // all live records by id
	ents   []dynEntry        // members (band ∪ shadow), unordered
	pos    map[int]int       // member id -> index into ents
	band   int               // members with count < k
	nextID int

	// Incremental repair (EnableIncrementalRepair). While repairing, scanIDs
	// is a snapshot of the non-member ids at repair start, screened in paced
	// chunks against screenRecs — the member records frozen (and ordered
	// strongest-first) at repair start — at depth repairCap (phase 1);
	// survivors accumulate in queue, from which phase 2 admits them one at a
	// time with exact dominator counts. repairDels counts deletes applied
	// since the snapshot: the "debt" discounted from the admission/coverage
	// depth, since each delete can lower any true count by at most one (the
	// same discount absorbs snapshot members that die mid-repair).
	repairChunk int // per-op repair floor, in screened records; 0 disables repair
	repairing   bool
	repairCap   int
	repairDels  int
	repairLeft  int // ops left on the pacing countdown (soft deadline)
	scanIDs     []int
	scanPos     int
	screenRecs  [][]float64
	screenSums  []float64 // coordSum of screenRecs[i]; desc — screen early-exit
	screenCnts  []int     // frozen exact count of screenRecs[i] — screen certificates
	screenIDs   []int     // id of screenRecs[i] — survivors' dominator lists
	queue       []int
	queueDoms   [][]int // frozen members dominating queue[i] (complete for survivors)
	queuePos    int
	queueSorted bool
	pendIns     []int // ids inserted mid-repair that did not join the members
	pendPos     int
	newMem      []int // ids that joined the members since the repair snapshot
	scrDoms     []int // per-record scratch for screening dominator collection
	// Per-repair work accounting for iteration-based pacing: dominance tests
	// spent on screening/admission and the records each phase finished, from
	// which tickMaintenance estimates the remaining work per phase.
	scScreened int
	adDone     int
	scIters    uint64
	adIters    uint64

	// Adaptive shadow depth (EnableAdaptiveShadow).
	adaptive     bool
	baseShadow   int
	maxShadow    int
	lastPressure uint64 // inserts+deletes at the previous exhaustion or repair start
	lastShrinkAt uint64

	// pool, when set (SetPool), fans ApplyOps' one-pass dominance accounting
	// across executor workers; nil keeps batch maintenance sequential.
	pool *exec.Pool

	// stats holds the lifetime counters, incremented in place; the size and
	// depth gauges in it are filled only in the copy Stats returns.
	stats DynamicStats

	// Member caches parallel to ents, maintained by addEntry/removeAt:
	// each member's coordinate sum (its dominance-pruning key), its float32
	// image for the columnar prescreen (row-major, dim floats per entry),
	// and the conversion-error magnitude max(1, |coord|...) the prescreen's
	// error bound needs. Records are immutable, so none of these go stale.
	entSums   []float64
	ent32     []float32
	entMaxAbs []float64

	// Member-pass scratch reused across batches (the structure is
	// single-writer): bucket ids, the bucket-sorted entry order, and the
	// batch-start count snapshot. Capacity-grown only, never shrunk.
	mpBkt []uint8
	mpOrd []int
	mpCnt []int32
	// Pass B's per-chunk pair buffers and the arena its merged per-delta
	// dominator lists are carved from. Both die with the batch (replay reads
	// them before ApplyOps returns), so the backing arrays are recycled.
	mpBy  [][]int
	mpDom []int

	// rmGen counts member removals (deletes and evictions). ApplyOps
	// snapshots it in rmBase at batch start; while the two agree, every
	// member-set snapshot id is provably still a member and the replay skips
	// its per-id liveness lookups.
	rmGen  uint64
	rmBase uint64
}

type dynEntry struct {
	id    int
	rec   []float64
	count int // exact number of live dominators
}

// Effect reports how one update changed the structure.
type Effect struct {
	// BandChanged reports whether band membership changed at all: queries
	// whose candidate superset is the band must refresh it.
	BandChanged bool
	// InBand reports whether the updated record itself is (insert) or was
	// (delete) a band member. A record outside the band is dominated by at
	// least k others, so its arrival or departure cannot change any top-k
	// result at depth ≤ k anywhere in the preference domain.
	InBand bool
	// Rebuilt reports whether this update exhausted the shadow band and
	// forced a coverage recomputation (drained repair or full reseed).
	Rebuilt bool
}

// DynamicStats is a snapshot of the structure's state and lifetime counters.
// It is the one declaration of the band counters: Dynamic increments them in
// a value of this type, the engine's Stats embeds it, and the serving layers
// read the fields from there.
type DynamicStats struct {
	// Live is the current record population. SupersetSize is the band — the
	// members below depth k, the candidate pool every warm query filters
	// instead of the full dataset — and ShadowSize the members beyond it,
	// retained for deletion repair.
	Live         int
	SupersetSize int
	ShadowSize   int
	// Coverage is the dominator-count depth up to which membership is
	// currently guaranteed (capK right after construction or a rebuild,
	// eroded by at most one per band/shadow deletion in between).
	Coverage int
	// ShadowDepth is the current retention depth beyond k (capK - k); it
	// varies over time when the adaptive shadow is enabled.
	ShadowDepth int
	// Inserts and Deletes count applied updates.
	Inserts uint64
	Deletes uint64
	// Promotions counts shadow members whose count dropped below k after a
	// delete; Demotions counts band members pushed to count ≥ k by an
	// insert; ShadowEvictions counts members dropped past the retention
	// depth.
	Promotions      uint64
	Demotions       uint64
	ShadowEvictions uint64
	// Rebuilds counts monolithic coverage recomputations (reseed or full
	// rebuild); Exhaustions counts shadow-exhaustion events (each is served
	// by draining an in-flight repair or by a rebuild); Repairs counts
	// incremental repairs that completed and restored coverage, and
	// RepairSteps the chunked screening steps they ran.
	Rebuilds    uint64
	Exhaustions uint64
	Repairs     uint64
	RepairSteps uint64
	// ShadowGrows/ShadowShrinks count adaptive shadow-depth resizes.
	ShadowGrows   uint64
	ShadowShrinks uint64
	// BandMaintenanceNS is the cumulative wall time (nanoseconds) spent
	// inside ApplyOps — the begin-stage band-maintenance cost of batch
	// apply. BatchApplyOps counts the update ops applied through ApplyOps,
	// CoalescedOps the ops it folded away instead (each insert→delete pair of
	// one record within a batch counts both ops), and
	// ParallelMaintenanceChunks the member-pass chunks that were fanned out
	// across executor workers.
	BandMaintenanceNS         uint64
	BatchApplyOps             uint64
	CoalescedOps              uint64
	ParallelMaintenanceChunks uint64
}

// Add folds the stats of another partition of the same dataset into s: sizes
// and counters sum, Coverage keeps the weakest guarantee and ShadowDepth the
// deepest retention.
func (s *DynamicStats) Add(o DynamicStats) {
	s.Live += o.Live
	s.SupersetSize += o.SupersetSize
	s.ShadowSize += o.ShadowSize
	s.Coverage = min(s.Coverage, o.Coverage)
	s.ShadowDepth = max(s.ShadowDepth, o.ShadowDepth)
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.ShadowEvictions += o.ShadowEvictions
	s.Rebuilds += o.Rebuilds
	s.Exhaustions += o.Exhaustions
	s.Repairs += o.Repairs
	s.RepairSteps += o.RepairSteps
	s.ShadowGrows += o.ShadowGrows
	s.ShadowShrinks += o.ShadowShrinks
	s.BandMaintenanceNS += o.BandMaintenanceNS
	s.BatchApplyOps += o.BatchApplyOps
	s.CoalescedOps += o.CoalescedOps
	s.ParallelMaintenanceChunks += o.ParallelMaintenanceChunks
}

// NewDynamic builds the structure over the initial records (ids 0..n-1).
// superset, when non-nil, must contain (at least) every record index whose
// dominator count is below k+shadowDepth — e.g. KSkyband(tree, k+shadowDepth)
// — and lets construction skip its own scan over the full dataset. The
// records and the superset slice are not retained or mutated.
func NewDynamic(records [][]float64, superset []int, k, shadowDepth int) (*Dynamic, error) {
	if k <= 0 {
		return nil, errors.New("skyband: dynamic band depth must be positive")
	}
	if shadowDepth < 0 {
		return nil, errors.New("skyband: negative shadow depth")
	}
	d := &Dynamic{
		k:      k,
		capK:   k + shadowDepth,
		live:   make(map[int][]float64, len(records)),
		nextID: len(records),
	}
	for id, rec := range records {
		d.live[id] = rec
	}
	if superset == nil {
		d.rebuild()
		d.stats.Rebuilds = 0
	} else {
		recs := make([][]float64, len(superset))
		for i, id := range superset {
			recs[i] = records[id]
		}
		d.setMembers(recs, superset)
	}
	return d, nil
}

// EnableIncrementalRepair turns on chunked coverage repair with the given
// per-update screening budget floor (records screened per update while a
// repair is in flight); chunk <= 0 selects a default. Without it, coverage is
// only restored by the monolithic reseed at exhaustion.
func (d *Dynamic) EnableIncrementalRepair(chunk int) {
	if chunk <= 0 {
		chunk = 128
	}
	d.repairChunk = chunk
}

// EnableAdaptiveShadow lets the shadow depth track the workload: it doubles
// (up to max) when exhaustions recur within the adaptation window and halves
// back toward base after long idle stretches. base is the floor the depth
// shrinks to; the current depth is left untouched until an exhaustion or
// shrink fires.
func (d *Dynamic) EnableAdaptiveShadow(base, max int) {
	if base < 0 {
		base = 0
	}
	if max < base {
		max = base
	}
	if cur := d.capK - d.k; max < cur {
		max = cur
	}
	d.adaptive = true
	d.baseShadow = base
	d.maxShadow = max
}

// SkipID consumes and returns the id the next insert would have been
// assigned, without inserting a record. Batch planners use it to keep id
// assignment aligned when an insert is coalesced away with a later delete of
// the same (predicted) id in one batch.
func (d *Dynamic) SkipID() int {
	id := d.nextID
	d.nextID++
	return id
}

// Insert adds a record (the slice is copied) and returns its assigned id.
func (d *Dynamic) Insert(rec []float64) (int, Effect) {
	id, eff := d.applyInsert(rec)
	d.tickMaintenance()
	return id, eff
}

// applyInsert is Insert without the maintenance tick — the shared core of
// the per-op path (which ticks after every op) and ApplyOps' post-exhaustion
// fallback (which defers ticking to one end-of-batch step).
func (d *Dynamic) applyInsert(rec []float64) (int, Effect) {
	id := d.nextID
	d.nextID++
	cp := append([]float64(nil), rec...)
	d.live[id] = cp
	d.stats.Inserts++
	var eff Effect

	// Exact dominator count of the newcomer within the member set, capped at
	// the coverage depth (beyond which membership is not required and counts
	// within the member set are no longer exact).
	c := 0
	for i := range d.ents {
		if geom.Dominates(d.ents[i].rec, cp) {
			c++
			if c >= d.cov {
				break
			}
		}
	}

	// The newcomer adds one dominator to every member it dominates. A member
	// crossing depth k leaves the band; one crossing capK is dropped. Any
	// member the newcomer dominates inherits all of the newcomer's dominators,
	// so its count is already ≥ c and entries below that are skipped without
	// a dominance test.
	for i := 0; i < len(d.ents); {
		e := &d.ents[i]
		if e.count >= c && geom.Dominates(cp, e.rec) {
			e.count++
			if e.count == d.k {
				d.band--
				d.stats.Demotions++
				eff.BandChanged = true
			}
			if e.count >= d.capK {
				d.stats.ShadowEvictions++
				d.removeAt(i)
				continue
			}
		}
		i++
	}

	if c < d.cov {
		d.addEntry(dynEntry{id: id, rec: cp, count: c})
		if c < d.k {
			d.band++
			eff.BandChanged = true
			eff.InBand = true
		}
	} else if d.repairing {
		// Untracked newcomer: its true count may still be below the repair's
		// admission depth, so it joins the mid-repair arrivals list.
		d.pendIns = append(d.pendIns, id)
	}
	return id, eff
}

// Delete removes a record by id, returning its coordinates. ok is false when
// the id is not live.
func (d *Dynamic) Delete(id int) (rec []float64, eff Effect, ok bool) {
	rec, eff, ok = d.applyDelete(id)
	if ok {
		d.tickMaintenance()
	}
	return rec, eff, ok
}

// applyDelete is Delete without the maintenance tick (see applyInsert).
func (d *Dynamic) applyDelete(id int) (rec []float64, eff Effect, ok bool) {
	rec, ok = d.live[id]
	if !ok {
		return nil, Effect{}, false
	}
	delete(d.live, id)
	d.stats.Deletes++
	if d.repairing {
		// Any delete may lower the true count of a record screened earlier,
		// so it joins the debt discounted from the repair's finalize depth.
		d.repairDels++
	}

	i, wasMember := d.pos[id]
	if !wasMember {
		// Fast path: a non-member has true count ≥ cov, so any member it
		// dominates has exact count ≥ cov+1 — entries at or below the
		// coverage depth cannot be affected, no promotion past depth k is
		// possible, and coverage does not erode. At full coverage every
		// member count is < capK = cov and the scan is skipped entirely.
		if d.cov < d.capK {
			for j := range d.ents {
				e := &d.ents[j]
				if e.count > d.cov && geom.Dominates(rec, e.rec) {
					e.count--
				}
			}
		}
		return rec, eff, true
	}

	memberCount := d.ents[i].count
	if memberCount < d.k {
		d.band--
		eff.InBand = true
		eff.BandChanged = true
	}
	d.removeAt(i)

	// The departed record was one dominator of every member it dominated.
	// Each such member inherits all of the departed record's dominators plus
	// the departed record itself, so its count exceeds memberCount and
	// entries at or below that are skipped without a dominance test. Shadow
	// members dropping below depth k are promoted into the band — the local
	// repair that makes deletion cheap.
	for j := range d.ents {
		e := &d.ents[j]
		if e.count > memberCount && geom.Dominates(rec, e.rec) {
			e.count--
			if e.count == d.k-1 {
				d.band++
				d.stats.Promotions++
				eff.BandChanged = true
			}
		}
	}

	// Untracked records dominated by the departed one may now sit one count
	// below the coverage depth; the guarantee erodes unless the departed
	// record's own count already met it.
	if memberCount < d.cov {
		d.cov--
		if d.cov < d.k {
			// Shadow exhausted: the band can no longer vouch for complete
			// membership.
			d.exhaust(&eff)
		} else {
			d.maybeStartRepair()
		}
	}
	return rec, eff, true
}

// exhaust restores a trustworthy band after coverage dropped below k: it
// drains an in-flight repair when that repair still lands above depth k,
// and otherwise falls back to the monolithic reseed. BandChanged is derived
// from the band size delta — sound because pre-exhaustion members have exact
// counts, so the old band is a subset of the recomputed one and membership
// changed iff the size did. Keeping the effect a pure function of the update
// sequence (rather than of shadow/repair tuning) is what makes engine epochs
// replay deterministically from a WAL.
func (d *Dynamic) exhaust(eff *Effect) {
	d.stats.Exhaustions++
	d.maybeGrowShadow()
	preBand := d.band
	if d.repairing && d.repairCap-d.repairDels > d.k {
		for d.repairing {
			d.repairStep(1 << 30)
		}
	}
	if d.cov < d.k {
		d.abortRepair()
		d.reseed()
	}
	eff.Rebuilt = true
	if d.band != preBand {
		eff.BandChanged = true
	}
}

// tickMaintenance runs after every applied update: it advances an in-flight
// repair by a deadline-paced chunk, or considers shrinking an over-grown
// shadow when no repair is active. Pacing divides the outstanding repair
// work by the coverage slack still above k — erosion consumes at most one
// slack level per update, so the repair always lands before the band's
// guarantee can break, and no single update ever does more than
// chunk + ceil(remaining/slack) + 1 units of repair work.
func (d *Dynamic) tickMaintenance() { d.tickMaintenanceN(1) }

// tickMaintenanceN is the batched form of the per-update tick: one
// maintenance step carrying the pacing budget of n applied updates. ApplyOps
// calls it once per batch, so a batch advances an in-flight repair with at
// most one chunked repairStep instead of one per exhausting op, while the
// deadline countdown and the work budget shrink exactly as n per-op ticks
// would have. n = 1 reproduces the per-op tick bit for bit.
func (d *Dynamic) tickMaintenanceN(n int) {
	if n <= 0 {
		return
	}
	if !d.repairing {
		d.maybeShrinkShadow()
		return
	}
	// Budgets are in dominance tests, not records: an admission costs up to a
	// full member-set scan while most screens exit after ~repairCap tests, so
	// record-count pacing would let one update swallow the whole admission
	// queue. Remaining work = unscreened records at the observed screen cost,
	// plus expected admissions (queued + the unscreened remainder at the
	// observed queue rate) at the observed admission cost. The countdown
	// starts at the coverage slack and loses one per update — erosion loses
	// at most the same — so the repair lands before exhaustion while every
	// update carries a near-uniform share of the work.
	scanRem := len(d.scanIDs) - d.scanPos
	scCost := 16
	if d.scScreened > 0 {
		scCost = int(d.scIters/uint64(d.scScreened)) + 1
	}
	// List-based admissions cost about one liveness probe per frozen
	// dominator plus the post-snapshot member scan — nowhere near a full
	// member-set pass.
	adCost := d.repairCap + len(d.newMem) + 1
	if d.adDone > 0 {
		adCost = int(d.adIters/uint64(d.adDone)) + 1
	}
	expAdm := (len(d.queue) - d.queuePos) + (len(d.pendIns) - d.pendPos)
	if d.scanPos > 0 {
		expAdm += scanRem * len(d.queue) / d.scanPos
	} else {
		expAdm += scanRem / 50
	}
	remaining := scanRem*scCost + expAdm*adCost
	left := d.repairLeft
	if left < 1 {
		left = 1
	}
	if d.repairLeft > n {
		d.repairLeft -= n
	} else {
		d.repairLeft = 1
	}
	// n deadline shares of the outstanding work, never more than the whole
	// estimate — the same total a run of n per-op ticks would have granted.
	share := n * ((remaining + left - 1) / left)
	if share > remaining {
		share = remaining
	}
	d.repairStep(n*d.repairChunk*scCost + share + adCost)
}

// maybeStartRepair snapshots the non-member population for incremental
// screening once coverage erodes into the lower half of the shadow. No
// dominance work happens here: the snapshot collects ids and freezes the
// member records strongest-first, so screening finds repairCap dominators in
// near-minimal tests. Repairs recurring within the adaptation window are the
// sustained-churn signal that grows the shadow (exhaustions cannot serve as
// that signal here: pacing finishes every repair before coverage reaches k).
func (d *Dynamic) maybeStartRepair() {
	if d.repairChunk <= 0 || d.repairing || d.cov >= d.capK {
		return
	}
	margin := (d.capK - d.k) / 2
	if margin < 1 {
		margin = 1
	}
	if d.cov-d.k > margin {
		return
	}
	d.maybeGrowShadow()
	d.repairing = true
	d.repairCap = d.capK
	d.repairDels = 0
	d.repairLeft = d.cov - d.k
	if d.repairLeft < 1 {
		d.repairLeft = 1
	}
	d.scanPos = 0
	d.scanIDs = d.scanIDs[:0]
	d.queue = d.queue[:0]
	d.queueDoms = d.queueDoms[:0]
	d.queuePos = 0
	d.queueSorted = false
	d.pendIns = d.pendIns[:0]
	d.pendPos = 0
	d.newMem = d.newMem[:0]
	d.scScreened, d.adDone, d.scIters, d.adIters = 0, 0, 0, 0
	for id := range d.live {
		if _, isMember := d.pos[id]; !isMember {
			d.scanIDs = append(d.scanIDs, id)
		}
	}
	type ss struct {
		rec []float64
		sum float64
		cnt int
		id  int
	}
	tmp := make([]ss, len(d.ents))
	for i := range d.ents {
		tmp[i] = ss{d.ents[i].rec, coordSum(d.ents[i].rec), d.ents[i].count, d.ents[i].id}
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a].sum > tmp[b].sum })
	d.screenRecs = d.screenRecs[:0]
	d.screenSums = d.screenSums[:0]
	d.screenCnts = d.screenCnts[:0]
	d.screenIDs = d.screenIDs[:0]
	for i := range tmp {
		d.screenRecs = append(d.screenRecs, tmp[i].rec)
		d.screenSums = append(d.screenSums, tmp[i].sum)
		d.screenCnts = append(d.screenCnts, tmp[i].cnt)
		d.screenIDs = append(d.screenIDs, tmp[i].id)
	}
}

// repairStep advances an in-flight repair by up to budget units.
//
// Phase 1 (screen) tests snapshot records against the current member set.
// Member counts are exact, so a record with ≥ repairCap member dominators at
// screening time has true count ≥ repairCap then, and — since each
// concurrent delete lowers any true count by at most one — true count
// ≥ repairCap − repairDels at any later point of the repair: screening it
// out is sound at every depth the repair can still use. Survivors join the
// admission queue.
//
// Phase 2 (admit) computes the exact dominator count of each queued record
// and splices it into the member set when the count is below the current
// discounted depth repairCap − repairDels. Exactness needs every live
// dominator of an admissible record covered by the scan, and each one is:
//
//   - a member (scanned);
//   - a queue entry not yet processed — impossible once the queue is sorted
//     by descending coordinate sum, because dominance implies a strictly
//     larger sum, so a dominator sorts strictly earlier;
//   - a queue entry processed earlier — then it was itself admissible at its
//     processing time (a dominator has strictly smaller true count, and the
//     discount depth shrinks by exactly the deletes separating the two
//     processing times, so admissibility propagates backwards), hence by
//     induction it was admitted and now sits in the member set (scanned), or
//     has since died (rightly uncounted) — eviction is ruled out because it
//     certifies a true count at or above the discount depth;
//   - screened out in phase 1 — certifies true count ≥ the discount depth,
//     contradicting domination of an admissible record;
//   - a mid-repair arrival (scanned: pendIns is kept separately precisely
//     because arrivals would break the queue's sort order).
//
// Once the queue drains, the arrivals themselves are processed the same way
// (scanning the remaining arrivals replaces the sort-order argument).
// Former non-members have true count ≥ coverage, so while coverage holds at
// ≥ k an admission never lands in the band; during an exhaustion drain it
// can, and the caller diffs the band size.
//
// When everything drains, coverage rises to the discounted depth: screening
// and admission together guarantee every live record with true count below
// that depth is now a member with an exact count. A repair overtaken by
// churn — discounted depth no better than current coverage — is abandoned.
func (d *Dynamic) repairStep(budget int) {
	if !d.repairing {
		return
	}
	if d.repairCap-d.repairDels <= d.cov {
		d.abortRepair()
		return
	}
	d.stats.RepairSteps++
	for budget > 0 && d.scanPos < len(d.scanIDs) {
		id := d.scanIDs[d.scanPos]
		d.scanPos++
		rec, ok := d.live[id]
		if !ok {
			continue // deleted since the snapshot
		}
		sum := coordSum(rec)
		// Strongest-first scan with two exits: accumulate found dominators, or
		// jump via a transitive certificate — every dominator of a dominating
		// member m also dominates rec, so tc(rec) ≥ count(m)+1. The sum order
		// bounds the scan: members at or below rec's coordinate sum cannot
		// dominate it. Survivors keep the complete list of frozen dominators;
		// admission then only needs to check which of them are still alive.
		best, iters := 0, 0
		d.scrDoms = d.scrDoms[:0]
		for j := range d.screenRecs {
			if d.screenSums[j] <= sum {
				break // sorted desc: nothing further can dominate rec
			}
			iters++
			if geom.Dominates(d.screenRecs[j], rec) {
				d.scrDoms = append(d.scrDoms, d.screenIDs[j])
				if c := d.screenCnts[j] + 1; c > best {
					best = c
				}
				if len(d.scrDoms) > best {
					best = len(d.scrDoms)
				}
				if best >= d.repairCap {
					break
				}
			}
		}
		budget -= iters + 1
		d.scScreened++
		d.scIters += uint64(iters) + 1
		if best < d.repairCap {
			d.queue = append(d.queue, id)
			d.queueDoms = append(d.queueDoms, append([]int(nil), d.scrDoms...))
		}
	}
	if d.scanPos >= len(d.scanIDs) && !d.queueSorted {
		type qs struct {
			id   int
			sum  float64
			doms []int
		}
		tmp := make([]qs, 0, len(d.queue))
		for i, id := range d.queue {
			if rec, ok := d.live[id]; ok {
				tmp = append(tmp, qs{id, coordSum(rec), d.queueDoms[i]})
			}
		}
		sort.Slice(tmp, func(a, b int) bool { return tmp[a].sum > tmp[b].sum })
		d.queue = d.queue[:0]
		d.queueDoms = d.queueDoms[:0]
		for i := range tmp {
			d.queue = append(d.queue, tmp[i].id)
			d.queueDoms = append(d.queueDoms, tmp[i].doms)
		}
		d.queuePos = 0
		d.queueSorted = true
	}
	for budget > 0 && d.scanPos >= len(d.scanIDs) && d.queuePos < len(d.queue) {
		id := d.queue[d.queuePos]
		doms := d.queueDoms[d.queuePos]
		d.queuePos++
		rec, ok := d.live[id]
		if !ok {
			continue // deleted while queued
		}
		// Exact current count from the frozen dominator list: survivors carry
		// every frozen member that dominates them, so the current members
		// dominating rec are exactly the still-live list entries plus the
		// post-snapshot members (newMem) — no member-set rescan. The breaks
		// fire only at ≥ depth, i.e. only on rejections, so an admitted count
		// is never truncated.
		depth := d.repairCap - d.repairDels
		cnt, iters := 0, 0
		for _, mid := range doms {
			iters++
			if _, alive := d.live[mid]; alive {
				cnt++
				if cnt >= depth {
					break
				}
			}
		}
		for i := range d.newMem {
			if cnt >= depth {
				break
			}
			p, alive := d.live[d.newMem[i]]
			if !alive {
				continue
			}
			iters++
			if geom.Dominates(p, rec) {
				cnt++
			}
		}
		if cnt < depth {
			c2, it2 := d.pendDomCount(rec, depth-cnt, d.pendPos)
			cnt += c2
			iters += it2
		}
		budget -= iters + 1
		d.adDone++
		d.adIters += uint64(iters) + 1
		if cnt < depth {
			d.addEntry(dynEntry{id: id, rec: rec, count: cnt})
			if cnt < d.k {
				d.band++
			}
		}
	}
	for budget > 0 && d.scanPos >= len(d.scanIDs) && d.queuePos >= len(d.queue) &&
		d.pendPos < len(d.pendIns) {
		id := d.pendIns[d.pendPos]
		d.pendPos++
		rec, ok := d.live[id]
		if !ok {
			continue
		}
		if _, isMember := d.pos[id]; isMember {
			continue
		}
		depth := d.repairCap - d.repairDels
		cnt, iters := d.admissionCount(rec, depth, d.pendPos)
		budget -= iters + 1
		d.adDone++
		d.adIters += uint64(iters) + 1
		if cnt < depth {
			d.addEntry(dynEntry{id: id, rec: rec, count: cnt})
			if cnt < d.k {
				d.band++
			}
		}
	}
	if d.scanPos >= len(d.scanIDs) && d.queuePos >= len(d.queue) && d.pendPos >= len(d.pendIns) {
		depth := d.repairCap - d.repairDels
		d.abortRepair()
		if depth > d.cov {
			d.cov = depth
			d.stats.Repairs++
		}
	}
}

// pendDomCount counts the live, still-untracked mid-repair arrivals from
// pendFrom on that dominate rec, capped at limit. It is the arrivals leg of
// an admission count (see repairStep); the second return is the dominance
// tests spent.
func (d *Dynamic) pendDomCount(rec []float64, limit, pendFrom int) (int, int) {
	cnt, iters := 0, 0
	for i := pendFrom; i < len(d.pendIns); i++ {
		id := d.pendIns[i]
		q, ok := d.live[id]
		if !ok {
			continue
		}
		if _, isMember := d.pos[id]; isMember {
			continue
		}
		iters++
		if geom.Dominates(q, rec) {
			cnt++
			if cnt >= limit {
				break
			}
		}
	}
	return cnt, iters
}

// admissionCount is the exact live dominator count of rec (capped at depth),
// scanned over the members and the live unprocessed mid-repair arrivals from
// pendFrom on — together the set that provably contains every live dominator
// of an admissible record (see repairStep). The second return is the number
// of dominance tests spent, for iteration-based pacing.
func (d *Dynamic) admissionCount(rec []float64, depth, pendFrom int) (int, int) {
	cnt, iters := 0, 0
	for j := range d.ents {
		iters++
		if geom.Dominates(d.ents[j].rec, rec) {
			cnt++
			if cnt >= depth {
				return cnt, iters
			}
		}
	}
	for i := pendFrom; i < len(d.pendIns); i++ {
		id := d.pendIns[i]
		q, ok := d.live[id]
		if !ok {
			continue
		}
		if _, isMember := d.pos[id]; isMember {
			continue
		}
		iters++
		if geom.Dominates(q, rec) {
			cnt++
			if cnt >= depth {
				return cnt, iters
			}
		}
	}
	return cnt, iters
}

func (d *Dynamic) abortRepair() {
	d.repairing = false
	d.scanIDs = d.scanIDs[:0]
	d.scanPos = 0
	d.screenRecs = d.screenRecs[:0]
	d.screenSums = d.screenSums[:0]
	d.screenCnts = d.screenCnts[:0]
	d.screenIDs = d.screenIDs[:0]
	d.queue = d.queue[:0]
	d.queueDoms = d.queueDoms[:0]
	d.queuePos = 0
	d.queueSorted = false
	d.pendIns = d.pendIns[:0]
	d.pendPos = 0
	d.newMem = d.newMem[:0]
	d.scScreened, d.adDone, d.scIters, d.adIters = 0, 0, 0, 0
}

// maybeGrowShadow doubles the shadow depth (toward maxShadow) when the
// current coverage-pressure event — an exhaustion, or the start of a repair
// — arrived within the adaptation window of the previous one: sustained
// churn deep enough to keep draining the shadow. A deeper shadow makes
// repairs both rarer (more erosion headroom before the trigger) and cheaper
// per update (pacing divides the work across the larger slack).
func (d *Dynamic) maybeGrowShadow() {
	total := d.stats.Inserts + d.stats.Deletes
	if d.adaptive && total-d.lastPressure < d.growWindow() {
		shadow := 2 * (d.capK - d.k)
		if shadow < 1 {
			shadow = 1
		}
		if shadow > d.maxShadow {
			shadow = d.maxShadow
		}
		if shadow > d.capK-d.k {
			d.capK = d.k + shadow
			d.stats.ShadowGrows++
		}
	}
	d.lastPressure = total
}

// maybeShrinkShadow halves a grown shadow back toward the base after a long
// exhaustion-free stretch, pruning members past the new retention depth.
func (d *Dynamic) maybeShrinkShadow() {
	if !d.adaptive || d.capK-d.k <= d.baseShadow {
		return
	}
	total := d.stats.Inserts + d.stats.Deletes
	ref := d.lastPressure
	if d.lastShrinkAt > ref {
		ref = d.lastShrinkAt
	}
	if total-ref < 16*d.growWindow() {
		return
	}
	shadow := (d.capK - d.k) / 2
	if shadow < d.baseShadow {
		shadow = d.baseShadow
	}
	d.capK = d.k + shadow
	for i := 0; i < len(d.ents); {
		if d.ents[i].count >= d.capK {
			d.stats.ShadowEvictions++
			d.removeAt(i)
			continue
		}
		i++
	}
	if d.cov > d.capK {
		d.cov = d.capK
	}
	d.lastShrinkAt = total
	d.stats.ShadowShrinks++
}

// growWindow is the adaptation horizon, in applied updates: exhaustions
// closer together than this are "frequent" (grow), and the shadow must sit
// idle for a large multiple of it before shrinking.
func (d *Dynamic) growWindow() uint64 {
	w := uint64(4 * len(d.ents))
	if w < 512 {
		w = 512
	}
	return w
}

// reseed restores coverage to capK after shadow exhaustion by reusing the
// surviving members as the seed of the recomputation, instead of running
// setMembers over every live record:
//
//  1. Survivor counts are still exact (invariant: every dominator of a
//     member is itself a member), so survivors screen the rest of the
//     dataset: a live record with at least capK dominators among the
//     survivors has true count ≥ capK and can never be a member. A record
//     with true count < capK necessarily has < capK dominators among the
//     survivors (they are a subset of its dominators), so it always passes
//     the screen — the surviving candidate pool provably contains every
//     record setMembers needs.
//  2. setMembers then computes exact counts over that small pool only.
//
// Versus the from-scratch rebuild this replaces, the screening pass needs no
// global sort (the survivors are pre-sorted by strength once) and the exact
// pass runs over a candidate pool near the final member count rather than
// the full dataset.
func (d *Dynamic) reseed() {
	// Survivors ordered by descending coordinate sum: the strongest members
	// first, so the per-record dominator scan hits capK and exits early.
	surv := make([]dynEntry, len(d.ents))
	copy(surv, d.ents)
	sort.Slice(surv, func(a, b int) bool { return coordSum(surv[a].rec) > coordSum(surv[b].rec) })

	ids := make([]int, 0, len(surv)*2)
	for id := range d.live {
		if _, isMember := d.pos[id]; isMember {
			continue
		}
		rec := d.live[id]
		cnt := 0
		for i := range surv {
			if geom.Dominates(surv[i].rec, rec) {
				cnt++
				if cnt >= d.capK {
					break
				}
			}
		}
		if cnt < d.capK {
			ids = append(ids, id)
		}
	}
	for i := range surv {
		ids = append(ids, surv[i].id)
	}
	sort.Ints(ids)
	recs := make([][]float64, len(ids))
	for i, id := range ids {
		recs[i] = d.live[id]
	}
	d.setMembers(recs, ids)
	d.stats.Rebuilds++
}

func coordSum(rec []float64) float64 {
	s := 0.0
	for _, v := range rec {
		s += v
	}
	return s
}

// Band returns the current k-skyband as parallel id/record slices sorted by
// ascending id. The returned slices are fresh; the record slices are shared
// and must not be mutated.
func (d *Dynamic) Band() ([]int, [][]float64) {
	// Collect (id, position) pairs packed into one int each — id in the high
	// bits, entry position in the low 21 — so the sort runs the comparator-free
	// integer fast path and the record gather reads ents directly instead of
	// going back through the pos map. Falls back to a keyed sort if the member
	// set ever outgrows the position field.
	const posBits = 21
	if len(d.ents) < 1<<posBits {
		at := make([]int, 0, d.band)
		for i := range d.ents {
			if d.ents[i].count < d.k {
				at = append(at, d.ents[i].id<<posBits|i)
			}
		}
		sort.Ints(at)
		ids := make([]int, len(at))
		recs := make([][]float64, len(at))
		for i, key := range at {
			p := key & (1<<posBits - 1)
			ids[i] = key >> posBits
			recs[i] = d.ents[p].rec
		}
		return ids, recs
	}
	at := make([]int, 0, d.band)
	for i := range d.ents {
		if d.ents[i].count < d.k {
			at = append(at, i)
		}
	}
	sort.Slice(at, func(a, b int) bool { return d.ents[at[a]].id < d.ents[at[b]].id })
	ids := make([]int, len(at))
	recs := make([][]float64, len(at))
	for i, p := range at {
		ids[i] = d.ents[p].id
		recs[i] = d.ents[p].rec
	}
	return ids, recs
}

// InBand reports whether id is currently a band member: live with an exact
// dominator count below k. It is the per-id equivalent of membership in
// Band()'s id slice, without materializing the snapshot.
func (d *Dynamic) InBand(id int) bool {
	p, ok := d.pos[id]
	return ok && d.ents[p].count < d.k
}

// Len returns the number of live records.
func (d *Dynamic) Len() int { return len(d.live) }

// Has reports whether id is live.
func (d *Dynamic) Has(id int) bool { _, ok := d.live[id]; return ok }

// Tracked reports whether id is currently in the member set (band ∪ shadow).
func (d *Dynamic) Tracked(id int) bool { _, ok := d.pos[id]; return ok }

// Record returns the coordinates of a live record (shared slice; do not
// mutate), or nil when the id is not live.
func (d *Dynamic) Record(id int) []float64 { return d.live[id] }

// K returns the band depth.
func (d *Dynamic) K() int { return d.k }

// NextID returns the id the next insert will be assigned.
func (d *Dynamic) NextID() int { return d.nextID }

// Stats returns a snapshot of sizes and lifetime counters.
func (d *Dynamic) Stats() DynamicStats {
	st := d.stats
	st.Live = len(d.live)
	st.SupersetSize = d.band
	st.ShadowSize = len(d.ents) - d.band
	st.Coverage = d.cov
	st.ShadowDepth = d.capK - d.k
	return st
}

// SetPool hands the structure an executor for batch maintenance: ApplyOps
// fans its one-pass dominance accounting over the pool's workers (the caller
// still serializes all access to the structure; the pool is used only for
// read-only fan-out inside a single ApplyOps call). A nil pool — the default
// — keeps every pass sequential.
func (d *Dynamic) SetPool(p *exec.Pool) { d.pool = p }

// Rebuild recomputes the member set from scratch over the live records,
// restoring the coverage depth to capK. The automatic shadow-exhaustion path
// uses the cheaper reseed (survivor-screened recomputation) instead; the full
// rebuild stays exposed for tests and benchmarks as the reference.
func (d *Dynamic) Rebuild() {
	d.abortRepair()
	d.rebuild()
}

func (d *Dynamic) addEntry(e dynEntry) {
	d.entSums = append(d.entSums, coordSum(e.rec))
	m := 1.0
	for _, v := range e.rec {
		d.ent32 = append(d.ent32, float32(v))
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	d.entMaxAbs = append(d.entMaxAbs, m)
	d.pos[e.id] = len(d.ents)
	d.ents = append(d.ents, e)
	if d.repairing {
		// In-flight repair admissions count post-snapshot members from this
		// list instead of rescanning the whole member set.
		d.newMem = append(d.newMem, e.id)
	}
}

// removeAt drops the member at position i by swapping in the last entry.
func (d *Dynamic) removeAt(i int) {
	last := len(d.ents) - 1
	dim := len(d.ents[i].rec)
	delete(d.pos, d.ents[i].id)
	if i != last {
		d.ents[i] = d.ents[last]
		d.pos[d.ents[i].id] = i
		d.entSums[i] = d.entSums[last]
		d.entMaxAbs[i] = d.entMaxAbs[last]
		copy(d.ent32[i*dim:(i+1)*dim], d.ent32[last*dim:(last+1)*dim])
	}
	d.ents = d.ents[:last]
	d.entSums = d.entSums[:last]
	d.entMaxAbs = d.entMaxAbs[:last]
	d.ent32 = d.ent32[:last*dim]
	d.rmGen++
}

// rebuild recomputes members and exact counts from the live records.
func (d *Dynamic) rebuild() {
	ids := make([]int, 0, len(d.live))
	for id := range d.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	recs := make([][]float64, len(ids))
	for i, id := range ids {
		recs[i] = d.live[id]
	}
	d.setMembers(recs, ids)
	d.stats.Rebuilds++
}

// setMembers computes exact member counts over a candidate pool that must
// contain every record with dominator count < capK (the pool may be the full
// dataset), restoring coverage to capK.
func (d *Dynamic) setMembers(recs [][]float64, ids []int) {
	d.setMembersAt(recs, ids, d.capK)
}

// setMembersAt is setMembers at an explicit retention depth ≤ capK: the pool
// must contain every record with dominator count < depth, and coverage is
// set to depth. Records are visited in strictly non-increasing coordinate-sum
// order; dominance implies a strictly larger sum, so every dominator of a
// record is visited (and kept, if its own count is below depth) before the
// record itself, making the counts exact up to the depth cap.
func (d *Dynamic) setMembersAt(recs [][]float64, ids []int, depth int) {
	order := make([]int, len(recs))
	sums := make([]float64, len(recs))
	for i, rec := range recs {
		order[i] = i
		s := 0.0
		for _, v := range rec {
			s += v
		}
		sums[i] = s
	}
	sort.SliceStable(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })

	d.ents = d.ents[:0]
	d.entSums = d.entSums[:0]
	d.entMaxAbs = d.entMaxAbs[:0]
	d.ent32 = d.ent32[:0]
	d.pos = make(map[int]int, 4*depth)
	d.band = 0
	for _, i := range order {
		c := 0
		for j := range d.ents {
			if geom.Dominates(d.ents[j].rec, recs[i]) {
				c++
				if c >= depth {
					break
				}
			}
		}
		if c < depth {
			d.addEntry(dynEntry{id: ids[i], rec: recs[i], count: c})
			if c < d.k {
				d.band++
			}
		}
	}
	d.cov = depth
}
