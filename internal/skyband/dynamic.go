package skyband

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"time"

	"repro/internal/geom"
)

// Dynamic maintains the classic k-skyband of a mutable record collection
// under inserts and deletes. Only this one region-independent superset needs
// dynamizing (Patil et al., fully dynamic top-k structures): the
// region-specific r-dominance graph is rebuilt per query anyway.
//
// Write count(q) for the number of live records dominating q. The structure
// keeps one closed-form invariant: its entry set is
//
//	E = { q live : no live record with count ≥ k dominates q }
//
// which splits into the band (count < k — the exact k-skyband, with exact
// counts) and the fence (the skyline of the non-band records, each holding a
// bound b with k ≤ b ≤ count: k at construction, exact from its first recount
// on). Every other live record is covered: it stores the id of one fence
// entry that dominates it. Three facts, all consequences of the transitivity
// and strictness of dominance (a dominator of q has strictly fewer dominators
// than q), make maintenance local:
//
//  1. Every dominator of an entry is a band entry, so any count the
//     structure ever needs is a scan of the band alone.
//  2. A covered record has count > k and dominates no entry, so inserting or
//     deleting one touches nothing but its own slot.
//  3. E is a function of the live set, not of the update order, so the test
//     oracle is the brute-force definition rather than a second
//     implementation.
//
// The only records a delete can promote are fence entries (their bound is
// decremented with the band's counts, and recounted when it falls below k)
// and the covered records whose cover just left the fence; the latter are
// re-covered once per run of deletes (see reCover), whose worst case is one
// pass over the cover column. No update recomputes or repairs anything.
//
// Dynamic is not safe for concurrent use; callers serialize access.
type Dynamic struct {
	k      int
	nextID int

	// The live table: one dense slot per live record, parallel columns. A
	// slot's cover is the id of a fence entry dominating the record, or
	// isEntry when the record is an entry itself.
	slot  map[int]int // id -> slot
	ids   []int
	recs  [][]float64
	cover []int

	// The entries: band in ents[:nb], fence in ents[nb:]; pos maps an entry's
	// id to its index. The fence is kept most-recently-useful first.
	ents []entry
	nb   int
	pos  map[int]int

	// opened has bit id&63 set for every fence entry that left the fence
	// (deleted, or promoted into the band) since the last re-cover pass: it
	// says a pass is due, and lets the pass reject most slots on one shift.
	opened uint64

	stats DynamicStats
}

// isEntry marks an entry in the cover column; unset a slot the constructor
// has not classified yet.
const (
	isEntry = -1
	unset   = -2
)

type entry struct {
	id    int
	rec   []float64
	sum   float64 // coordinate sum of rec, and
	gate  float64 // the sum a dominator of rec must exceed (see newEntry)
	count int     // band: exact dominator count; fence: bound in [k, count]
}

// newEntry prepares a record for dominance tests, as a probe or to be stored.
// The gate is sum-based pruning made sound: a record dominating another has a
// coordinate sum larger by more than −dim·Eps (each dimension tolerates Eps,
// one must exceed it), and the float64 sums of both carry rounding error well
// below the relative term — a candidate dominator whose sum does not exceed
// the gate provably fails geom.Dominates.
func newEntry(id int, rec []float64, count int) entry {
	sum := coordSum(rec)
	return entry{id: id, rec: rec, sum: sum, gate: sum - float64(len(rec))*geom.Eps - (1+math.Abs(sum))*4e-12, count: count}
}

func (e *entry) dominates(x *entry) bool { return e.sum > x.gate && geom.Dominates(e.rec, x.rec) }

// ranked orders live slots strongest first (see strongestFirst).
type ranked struct {
	sum  float64
	slot int
}

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

// Effect reports how one update changed the structure. Both bits are a
// function of the update sequence alone, which is what makes engine epochs
// replay deterministically from a WAL.
type Effect struct {
	// BandChanged reports whether band membership changed: queries whose
	// candidate superset is the band must refresh it. A change found by a
	// re-cover pass is reported on the delete that preceded the pass.
	BandChanged bool
	// InBand reports whether the updated record itself is (insert) or was
	// (delete) a band member. A record outside the band is dominated by at
	// least k others, so its arrival or departure cannot change any top-k
	// result at depth ≤ k anywhere in the preference domain.
	InBand bool
}

// DynamicStats is a snapshot of the structure's state and lifetime counters.
// It is the one declaration of the band counters: Dynamic increments them in
// a value of this type, the engine's Stats embeds it, and the serving layers
// read the fields from there.
type DynamicStats struct {
	// Live is the current record population. SupersetSize is the band — the
	// candidate pool every warm query filters instead of the full dataset —
	// and ShadowSize the fence, the entries retained beyond the band for
	// deletion repair.
	Live         int
	SupersetSize int
	ShadowSize   int
	// Inserts and Deletes count applied updates.
	Inserts uint64
	Deletes uint64
	// Promotions counts records a delete moved into the band (a fence entry
	// recounted below k, or a re-covered record admitted straight to it);
	// Demotions counts band entries an insert pushed to count k, onto the
	// fence; ShadowEvictions counts fence entries absorbed by a stronger new
	// fence entry (they become covered by it).
	Promotions      uint64
	Demotions       uint64
	ShadowEvictions uint64
	// Repairs counts re-cover passes and RepairSteps the records those passes
	// re-examined. Exhaustions and Rebuilds are always 0 since PR 18 (the
	// mechanisms are gone); the frozen benchmark still reads them.
	Repairs     uint64
	RepairSteps uint64
	Exhaustions uint64
	Rebuilds    uint64
	// BandMaintenanceNS is the cumulative wall time (nanoseconds) spent
	// inside ApplyOps. BatchApplyOps counts the ops it applied, CoalescedOps
	// the ops it folded away instead (each insert→delete pair of one record
	// within a batch counts both ops).
	BandMaintenanceNS uint64
	BatchApplyOps     uint64
	CoalescedOps      uint64
}

// Add folds the stats of another partition of the same dataset into s.
func (s *DynamicStats) Add(o DynamicStats) {
	s.Live += o.Live
	s.SupersetSize += o.SupersetSize
	s.ShadowSize += o.ShadowSize
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.ShadowEvictions += o.ShadowEvictions
	s.Repairs += o.Repairs
	s.RepairSteps += o.RepairSteps
	s.Exhaustions += o.Exhaustions
	s.Rebuilds += o.Rebuilds
	s.BandMaintenanceNS += o.BandMaintenanceNS
	s.BatchApplyOps += o.BatchApplyOps
	s.CoalescedOps += o.CoalescedOps
}

// NewDynamic builds the structure over the initial records (ids 0..n-1): one
// counting sweep (see sweep) yields the band with exact counts, and the
// records it leaves, still strongest first, are the fence pass's input. The
// records are referenced, never mutated.
func NewDynamic(records [][]float64, k int) (*Dynamic, error) {
	if k <= 0 {
		return nil, errors.New("skyband: dynamic band depth must be positive")
	}
	d := newDynamic(k, len(records), 0)
	d.nextID = len(records)
	for id, rec := range records {
		d.addLive(id, rec, unset)
	}
	band, rest := sweep(records, k)
	for _, e := range band {
		d.cover[e.id] = isEntry
		d.addEntry(e, true)
	}
	d.buildFence(rest)
	return d, nil
}

// sweep computes the k-skyband of recs with exact dominator counts in one
// strongest-first order. Every dominator of a record sorts before it, and a
// record with any dominator outside the band has at least k inside it (the k
// strongest dominators of a record have fewer than k dominators each), so
// counting a record's band dominators up to k decides its membership, and
// below k the count is exact. It returns the band entries (id = index into
// recs) in sweep order and the other records, strongest first.
func sweep(recs [][]float64, k int) (band []entry, rest []ranked) {
	order := make([]ranked, len(recs))
	for i, rec := range recs {
		order[i] = ranked{sum: coordSum(rec), slot: i}
	}
	slices.SortFunc(order, strongestFirst(recs))
	rest = order[:0]
	for _, r := range order {
		e := newEntry(r.slot, recs[r.slot], 0)
		for j := 0; j < len(band) && e.count < k; j++ {
			if band[j].dominates(&e) {
				e.count++
			}
		}
		if e.count < k {
			band = append(band, e)
		} else {
			rest = append(rest, r)
		}
	}
	return band, rest
}

// CountBand returns the k-skyband of recs with exact dominator counts in
// Band's order — count-major, ties by index — as indices into recs and their
// counts.
func CountBand(recs [][]float64, k int) (idx, counts []int) {
	band, _ := sweep(recs, k)
	return countMajor(band, k)
}

// countMajor orders band entries (every count below k) count-major, ties by
// id, returning their ids and counts: a counting sort on the count, then each
// count's ids sorted.
func countMajor(band []entry, k int) (ids, counts []int) {
	start := make([]int, k+1) // start[c]: where the entries with count c begin
	for _, e := range band {
		start[e.count+1]++
	}
	for c := 1; c <= k; c++ {
		start[c] += start[c-1]
	}
	ids, counts = make([]int, len(band)), make([]int, len(band))
	next := slices.Clone(start)
	for _, e := range band {
		ids[next[e.count]], counts[next[e.count]] = e.id, e.count
		next[e.count]++
	}
	for c := range k {
		slices.Sort(ids[start[c]:start[c+1]])
	}
	return ids, counts
}

func newDynamic(k, live, band int) *Dynamic {
	return &Dynamic{
		k:     k,
		slot:  make(map[int]int, live),
		ids:   make([]int, 0, live),
		recs:  make([][]float64, 0, live),
		cover: make([]int, 0, live),
		ents:  make([]entry, 0, 2*band),
		pos:   make(map[int]int, 2*band),
	}
}

// buildFence classifies the non-band slots, given strongest first, against
// the exact band: a record some fence entry dominates is covered by it, and
// any other is on the skyline of the non-band records — a fence entry, bound
// k.
func (d *Dynamic) buildFence(rest []ranked) {
	for _, r := range rest {
		e := newEntry(d.ids[r.slot], d.recs[r.slot], d.k)
		if d.cover[r.slot] = d.findCover(&e); d.cover[r.slot] == isEntry {
			d.addEntry(e, false)
		}
	}
}

// strongestFirst orders slots of recs by descending coordinate sum, ties by
// descending lexicographic coordinates: a dominator is coordinate-wise no
// smaller and somewhere larger, so it sorts strictly before what it
// dominates even when rounding makes the two sums equal.
func strongestFirst(recs [][]float64) func(a, b ranked) int {
	return func(a, b ranked) int {
		if c := cmp.Compare(b.sum, a.sum); c != 0 {
			return c
		}
		return slices.Compare(recs[b.slot], recs[a.slot])
	}
}

func coordSum(rec []float64) float64 {
	s := 0.0
	for _, v := range rec {
		s += v
	}
	return s
}

// ApplyOps applies a batch of updates in order and returns the assigned ids
// (deletes echo their target id) and per-op effects, positionally aligned
// with ops. The batch is planned first — an insert whose predicted id a later
// delete of the same batch targets is coalesced away with that delete (the
// id is still consumed, keeping assignment aligned) — and nothing is mutated
// until the whole batch validates. It is the only mutation path: Insert and
// Delete are batches of one.
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
	napplied := len(ops)
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
		j, predicted := insPos[op.ID]
		if !predicted && !d.Has(op.ID) {
			return nil, nil, ErrUnknownID
		}
		if deleted == nil {
			deleted = make(map[int]bool, len(ops))
		}
		deleted[op.ID] = true
		if predicted {
			coalesce[j], coalesce[i] = true, true
			napplied -= 2
		}
	}
	d.stats.BatchApplyOps += uint64(napplied)
	d.stats.CoalescedOps += uint64(len(ops) - napplied)

	ids := make([]int, len(ops))
	effs := make([]Effect, len(ops))
	// A run of deletes is re-covered once, before the next insert applies or
	// at batch end; what the pass finds is reported on the run's last delete.
	var lastDel *Effect
	for i, op := range ops {
		switch {
		case coalesce[i] && op.Insert:
			ids[i] = d.SkipID()
		case coalesce[i]:
			ids[i] = op.ID
		case op.Insert:
			if d.reCover() {
				lastDel.BandChanged = true
			}
			ids[i], effs[i] = d.insert(op.Record)
		default:
			ids[i] = op.ID
			d.delete(op.ID, &effs[i])
			lastDel = &effs[i]
		}
	}
	if d.reCover() {
		lastDel.BandChanged = true
	}
	return ids, effs, nil
}

// Insert adds a record (the slice is copied) and returns its assigned id.
func (d *Dynamic) Insert(rec []float64) (int, Effect) {
	ids, effs, _ := d.ApplyOps([]Op{{Insert: true, Record: rec}}) // an insert-only batch cannot fail validation
	return ids[0], effs[0]
}

// Delete removes a record by id, returning its coordinates. ok is false when
// the id is not live.
func (d *Dynamic) Delete(id int) (rec []float64, eff Effect, ok bool) {
	if rec = d.Record(id); rec == nil {
		return nil, Effect{}, false
	}
	_, effs, _ := d.ApplyOps([]Op{{ID: id}}) // the id was just seen live
	return rec, effs[0], true
}

// SkipID consumes and returns the id the next insert would have been
// assigned, without inserting a record — how a coalesced insert keeps id
// assignment aligned.
func (d *Dynamic) SkipID() int {
	id := d.nextID
	d.nextID++
	return id
}

// insert applies one insert. Requires no cover opened (reCover has run).
func (d *Dynamic) insert(rec []float64) (int, Effect) {
	d.stats.Inserts++
	e := newEntry(d.SkipID(), append([]float64(nil), rec...), 0)
	f := d.findCover(&e)
	d.addLive(e.id, e.rec, f)
	if f != isEntry {
		return e.id, Effect{}
	}
	// No fence entry dominates the record, hence no covered record does
	// either (its cover would): the band holds every dominator and the count
	// is exact.
	if e.count = d.bandCount(&e); e.count >= d.k {
		d.addEntry(e, false)
		d.absorb(e.id)
		return e.id, Effect{}
	}

	// A band insert is one more dominator for every entry it dominates; such
	// an entry inherits all of the record's dominators, so entries with a
	// smaller count are skipped untested. The fence goes first: a band entry
	// reaching k moves there, and must not be bumped twice.
	for j := d.nb; j < len(d.ents); j++ {
		if x := &d.ents[j]; e.dominates(x) {
			x.count++
		}
	}
	var demoted []int
	for j := 0; j < d.nb; {
		x := &d.ents[j]
		if x.count >= e.count && e.dominates(x) {
			x.count++
			if x.count == d.k {
				d.stats.Demotions++
				demoted = append(demoted, x.id)
				d.swapEnts(j, d.nb-1)
				d.nb--
				continue // an unvisited band entry now sits at j
			}
		}
		j++
	}
	d.addEntry(e, true)
	d.absorb(demoted...)
	return e.id, Effect{BandChanged: true, InBand: true}
}

// delete applies one delete of a live id.
func (d *Dynamic) delete(id int, eff *Effect) {
	s := d.slot[id]
	if c := d.cover[s]; c >= 0 && d.opened != 0 && !d.isFence(c) {
		// The target lost its cover earlier in this run of deletes. Unless
		// another fence entry covers it, it may by now be an entry, and only
		// the pass can tell: run it first so InBand is exact.
		if e := newEntry(id, d.recs[s], 0); d.findCover(&e) == isEntry {
			eff.BandChanged = d.reCover()
		}
	}
	d.stats.Deletes++
	covered := d.cover[s] >= 0
	d.dropLive(s)
	if covered {
		return // Fact 2: nothing else moves
	}
	p := d.pos[id]
	e, fence := d.ents[p], p >= d.nb
	d.removeEntry(p)
	if fence {
		// A fence entry dominates no entry; only its dependants notice.
		d.open(id)
		return
	}
	eff.InBand, eff.BandChanged = true, true
	// One dominator fewer for every entry e dominated; each has a count above
	// e's own. A fence bound falling below k is recounted against the band
	// (Fact 1) and, if the record truly has fewer than k dominators now, it
	// joins the band.
	for j := range d.ents {
		x := &d.ents[j]
		if x.count > e.count && e.dominates(x) {
			x.count--
			if j >= d.nb && x.count < d.k {
				if x.count = d.bandCount(x); x.count < d.k {
					d.stats.Promotions++
					d.open(x.id)
					d.swapEnts(j, d.nb) // a visited fence entry moves to j
					d.nb++
				}
			}
		}
	}
}

// open records that a fence entry left the fence: the covered records
// pointing at it need another cover (see reCover).
func (d *Dynamic) open(id int) { d.opened |= 1 << (uint(id) & 63) }

// reCover is the re-cover pass, run once per run of deletes: every covered
// record whose cover left the fence searches the fence for another; the
// survivors, strongest first, are each covered by a fence entry admitted
// earlier in the pass or — every dominator of theirs then being in the band —
// counted exactly and admitted to the band or the fence. It reports whether
// a record joined the band. Deferring the pass across a run of deletes is
// sound because such a record dominates no entry until it is admitted.
func (d *Dynamic) reCover() (bandChanged bool) {
	if d.opened == 0 {
		return false
	}
	d.stats.Repairs++
	var pend []ranked
	for s, c := range d.cover {
		if c < 0 || d.opened>>(uint(c)&63)&1 == 0 || d.isFence(c) {
			continue
		}
		d.stats.RepairSteps++
		e := newEntry(d.ids[s], d.recs[s], 0)
		if d.cover[s] = d.findCover(&e); d.cover[s] == isEntry {
			pend = append(pend, ranked{sum: e.sum, slot: s})
		}
	}
	d.opened = 0
	slices.SortFunc(pend, strongestFirst(d.recs))
	var admitted []entry // fence entries this pass created
next:
	for _, r := range pend {
		e := newEntry(d.ids[r.slot], d.recs[r.slot], 0)
		for i := range admitted {
			if admitted[i].dominates(&e) {
				d.cover[r.slot] = admitted[i].id
				continue next
			}
		}
		if e.count = d.bandCount(&e); e.count < d.k {
			d.stats.Promotions++
			bandChanged = true
			d.addEntry(e, true)
		} else {
			d.addEntry(e, false)
			admitted = append(admitted, e)
		}
	}
	return bandChanged
}

// findCover returns the cover-column value for q: the id of a fence entry
// dominating it, or isEntry when there is none. A hit moves halfway to the
// front, so the entries that cover the most records are tried first.
func (d *Dynamic) findCover(q *entry) int {
	for j := d.nb; j < len(d.ents); j++ {
		if d.ents[j].dominates(q) {
			id := d.ents[j].id
			d.swapEnts(j, d.nb+(j-d.nb)/2)
			return id
		}
	}
	return isEntry
}

// bandCount is the number of band entries dominating q — by Fact 1 the exact
// dominator count of any entry or entry-to-be.
func (d *Dynamic) bandCount(q *entry) int {
	c := 0
	for j := 0; j < d.nb; j++ {
		if d.ents[j].dominates(q) {
			c++
		}
	}
	return c
}

// absorb is run for the records that just joined the fence: the fence
// entries one of them dominates are no longer on the skyline of the non-band
// records, so each becomes covered by it, and their dependants are re-pointed
// with one pass over the cover column.
func (d *Dynamic) absorb(joined ...int) {
	var heir map[int]int // absorbed fence id -> the joined id covering it
	var mask uint64
	for _, id := range joined {
		g := d.ents[d.pos[id]]
		for j := d.nb; j < len(d.ents); {
			x := &d.ents[j]
			if x.id != id && g.dominates(x) {
				d.stats.ShadowEvictions++
				if heir == nil {
					heir = map[int]int{}
				}
				heir[x.id] = id
				mask |= 1 << (uint(x.id) & 63)
				d.cover[d.slot[x.id]] = id
				d.removeEntry(j)
				continue // the last fence entry now sits at j
			}
			j++
		}
	}
	if heir == nil {
		return
	}
	for s, c := range d.cover {
		if c >= 0 && mask>>(uint(c)&63)&1 != 0 {
			if id, ok := heir[c]; ok {
				d.cover[s] = id
			}
		}
	}
}

func (d *Dynamic) isFence(id int) bool {
	p, ok := d.pos[id]
	return ok && p >= d.nb
}

func (d *Dynamic) addLive(id int, rec []float64, cover int) {
	d.slot[id] = len(d.ids)
	d.ids = append(d.ids, id)
	d.recs = append(d.recs, rec)
	d.cover = append(d.cover, cover)
}

// dropLive frees slot s by moving the last slot into it.
func (d *Dynamic) dropLive(s int) {
	last := len(d.ids) - 1
	delete(d.slot, d.ids[s])
	if s != last {
		d.ids[s], d.recs[s], d.cover[s] = d.ids[last], d.recs[last], d.cover[last]
		d.slot[d.ids[s]] = s
	}
	d.recs[last] = nil
	d.ids, d.recs, d.cover = d.ids[:last], d.recs[:last], d.cover[:last]
}

// addEntry appends e to the fence or, with band set, to the band (the fence
// entry at the boundary makes room by moving to the end).
func (d *Dynamic) addEntry(e entry, band bool) {
	p := len(d.ents)
	d.ents = append(d.ents, e)
	d.pos[e.id] = p
	if band {
		d.swapEnts(p, d.nb)
		d.nb++
	}
}

// removeEntry drops the entry at p, keeping both partitions dense.
func (d *Dynamic) removeEntry(p int) {
	delete(d.pos, d.ents[p].id)
	if p < d.nb {
		d.nb--
		d.moveEnt(d.nb, p)
		p = d.nb
	}
	last := len(d.ents) - 1
	d.moveEnt(last, p)
	d.ents[last] = entry{}
	d.ents = d.ents[:last]
}

// moveEnt overwrites the (vacated) index to with the entry at from.
func (d *Dynamic) moveEnt(from, to int) {
	if from != to {
		d.ents[to] = d.ents[from]
		d.pos[d.ents[to].id] = to
	}
}

func (d *Dynamic) swapEnts(i, j int) {
	if i != j {
		d.ents[i], d.ents[j] = d.ents[j], d.ents[i]
		d.pos[d.ents[i].id], d.pos[d.ents[j].id] = i, j
	}
}

// Band returns the current k-skyband as parallel id/record/count slices, with
// exact dominator counts, sorted count-major with ties by id: for every j ≤ k
// the j-skyband is the prefix of the entries with count < j. The returned
// slices are fresh; the record slices are shared and must not be mutated.
func (d *Dynamic) Band() ([]int, [][]float64, []int) {
	ids, counts := countMajor(d.ents[:d.nb], d.k)
	recs := make([][]float64, len(ids))
	for i, id := range ids {
		recs[i] = d.ents[d.pos[id]].rec
	}
	return ids, recs, counts
}

// InBand reports whether id is currently a band member: live with fewer than
// k dominators. It is the per-id equivalent of membership in Band()'s id
// slice, without materializing the snapshot.
func (d *Dynamic) InBand(id int) bool {
	p, ok := d.pos[id]
	return ok && p < d.nb
}

// Len returns the number of live records.
func (d *Dynamic) Len() int { return len(d.ids) }

// Has reports whether id is live.
func (d *Dynamic) Has(id int) bool { _, ok := d.slot[id]; return ok }

// Tracked reports whether id is currently an entry (band ∪ fence).
func (d *Dynamic) Tracked(id int) bool { _, ok := d.pos[id]; return ok }

// Record returns the coordinates of a live record (shared slice; do not
// mutate), or nil when the id is not live.
func (d *Dynamic) Record(id int) []float64 {
	if s, ok := d.slot[id]; ok {
		return d.recs[s]
	}
	return nil
}

// K returns the band depth.
func (d *Dynamic) K() int { return d.k }

// NextID returns the id the next insert will be assigned.
func (d *Dynamic) NextID() int { return d.nextID }

// Stats returns a snapshot of sizes and lifetime counters.
func (d *Dynamic) Stats() DynamicStats {
	st := d.stats
	st.Live = len(d.ids)
	st.SupersetSize = d.nb
	st.ShadowSize = len(d.ents) - d.nb
	return st
}
