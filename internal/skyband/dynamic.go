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
// bound b with k ≤ b ≤ count: k when the entry joins the fence or is
// recounted, and moved by one with each band dominator inserted or deleted
// since). Every other live record is covered: it stores the id of one fence
// entry that dominates it. Three facts, all consequences of the transitivity
// and strictness of dominance (a dominator of q has strictly fewer dominators
// than q), make maintenance local:
//
//  1. Every dominator of an entry is a band entry, so any count the
//     structure ever needs is a search of the band alone.
//  2. A covered record has count > k and dominates no entry, so inserting or
//     deleting one touches nothing but its own slot.
//  3. E is a function of the live set, not of the update order, so the test
//     oracle is the brute-force definition rather than a second
//     implementation.
//
// The only records a delete can promote are fence entries (their bound is
// decremented with the band's counts, and recounted when it falls below k)
// and the covered records whose cover just left the fence; the latter wait
// on the orphan list and are re-covered once per run of deletes (see
// reCover), at the cost of their own fence searches. No update recomputes or
// repairs anything.
//
// An entry is a live slot whose cover column says so, and its count column
// holds its count or bound; there is no entry list beside the live table.
// The band's entries and the fence's each sit in a grid (see grid), the two
// the constructor's passes build, kept for the structure's whole life: which
// of them holds an entry is its partition. Every search an update makes is a
// visit of one of them: the dominators of a record, counted up to a limit, or
// the entries a record dominates. No update walks the band, the fence or the
// live table, apart from a grid's own upkeep: re-bucketing when its rows
// double or halve, and redrawing its diagonal bound after a row among the
// largest row minima leaves (see grid.resize and grid.redraw).
//
// Dynamic is not safe for concurrent use; callers serialize access.
type Dynamic struct {
	k      int
	nextID int

	// The live table: one dense slot per live record, parallel columns. A
	// slot's cover is the id of a fence entry dominating the record, or
	// isEntry when the record is an entry itself. An entry's count is its
	// exact dominator count below k and its fence bound at k or more; a
	// covered slot's is at least k and never read. The link column threads
	// the slots into circular lists: an entry's own slot heads the list of
	// the slots it covers (only a fence entry covers any), and the slots
	// whose cover left the fence wait on the orphan list, headed by orphans.
	slot   map[int]int // id -> slot
	ids    []int
	recs   [][]float64
	cover  []int
	count  []int32
	link   []links
	orphan links

	// band and fence hold the entries of the two partitions by id.
	band, fence *grid

	// levels[c] is the band entries with count c, sorted by id: Band's
	// count-major order, kept up to date by relevel and shift. There are as
	// many levels as the largest count present needs, fewer than k.
	levels [][]member

	// gen counts applied plans; a plan records it (see Plan).
	gen uint64

	stats DynamicStats
}

// links are a list node's neighbours, as slots or orphans.
type links struct{ next, prev int32 }

// orphans stands for the orphan list's head wherever the link column holds a
// slot.
const orphans int32 = -1

// isEntry marks an entry in the cover column; unset a slot the constructor
// has not classified yet.
const (
	isEntry = -1
	unset   = -2
)

// entry is a record prepared for dominance tests: a probe of a grid search,
// or the row a grid stores.
type entry struct {
	id   int
	rec  []float64
	sum  float64 // coordinate sum of rec, and
	gate float64 // the sum a dominator of rec must exceed (see gateOf)
}

// newEntry prepares a record for dominance tests, as a probe or to be stored.
func newEntry(id int, rec []float64) entry {
	sum := coordSum(rec)
	return entry{id: id, rec: rec, sum: sum, gate: gateOf(sum, len(rec))}
}

// gateOf is sum-based pruning made sound: a record dominating another has a
// coordinate sum larger by more than −dim·Eps (each dimension tolerates Eps,
// one must exceed it), and the float64 sums of both carry rounding error well
// below the relative term — a candidate dominator whose sum does not exceed
// the gate of the other's sum provably fails geom.Dominates. An overflowed
// sum bounds nothing: its gate is −Inf, and a −Inf sum passes every gate (see
// passes).
func gateOf(sum float64, dim int) float64 {
	if math.IsInf(sum, 0) {
		return math.Inf(-1)
	}
	return sum - float64(dim)*geom.Eps - (1+math.Abs(sum))*4e-12
}

// passes reports whether a candidate with coordinate sum sum may dominate a
// probe with gate gate.
func passes(sum, gate float64) bool { return sum > gate || math.IsInf(sum, -1) }

// ranked orders live slots strongest first (see strongestFirst).
type ranked struct {
	sum  float64
	slot int
}

// Op is one update of a batch handed to Plan (or ApplyOps): an insert
// carrying its record, or a delete carrying the target id.
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
	// inside Plan and Apply. BatchApplyOps counts the ops Apply applied,
	// CoalescedOps the ops it folded away instead (each insert→delete pair
	// of one record within a batch counts both ops).
	BandMaintenanceNS uint64
	BatchApplyOps     uint64
	CoalescedOps      uint64
}

// NewDynamic builds the structure over the initial records (ids 0..n-1) as
// RestoreDynamic builds it over a state's. The records are referenced, never
// mutated.
func NewDynamic(records [][]float64, k int) (*Dynamic, error) {
	ids := make([]int, len(records))
	for i := range ids {
		ids[i] = i
	}
	return RestoreDynamic(&DynamicState{K: k, NextID: len(records), LiveIDs: ids, LiveRecs: records})
}

// sweep is the band pass: given the live slots strongest first, it admits
// the k-skyband to the band with exact dominator counts and returns the
// other slots, still strongest first. Every dominator of a record sorts
// before it, and a record with any dominator outside the band has at least k
// inside it (the k strongest dominators of a record have fewer than k
// dominators each), so counting a record's band dominators up to k decides
// its membership, and below k the count is exact. The counting is one grid
// pass (see gridPass) over the band admitted so far, through the band's grid.
func (d *Dynamic) sweep(order []ranked) (rest []ranked) {
	rest = order[:0] // gridPass has read order[i] when it visits it
	gridPass(d.band, d.recs, order, func(r ranked, n, _ int) {
		if n < d.k {
			d.cover[r.slot] = isEntry
			d.relevel(r.slot, n)
		} else {
			rest = append(rest, r)
		}
	})
	return rest
}

// CountBand returns the k-skyband of recs with exact dominator counts in
// Band's order — count-major, ties by index — as indices into recs and their
// counts.
func CountBand(recs [][]float64, k int) (idx, counts []int) {
	d, err := NewDynamic(recs, k)
	if err != nil {
		return nil, nil
	}
	idx, _, counts = d.Band()
	return idx, counts
}

func newDynamic(k, live int) *Dynamic {
	return &Dynamic{
		k:      k,
		band:   newGrid(k),
		fence:  newGrid(1),
		slot:   make(map[int]int, live),
		ids:    make([]int, 0, live),
		recs:   make([][]float64, 0, live),
		cover:  make([]int, 0, live),
		count:  make([]int32, 0, live),
		link:   make([]links, 0, live),
		orphan: links{orphans, orphans},
	}
}

// buildFence classifies the non-band slots, given strongest first, against
// the exact band: a record some fence entry dominates is covered by the first
// one a grid pass over the fence finds, and any other is on the skyline of
// the non-band records — a fence entry, bound k (see addLive). Both
// passes' grids hold slots; this one ends by relabelling them to ids, which
// stay put when a slot moves.
func (d *Dynamic) buildFence(rest []ranked) {
	gridPass(d.fence, d.recs, rest, func(r ranked, _, first int) {
		if first >= 0 {
			d.coverBy(r.slot, first)
			return
		}
		d.cover[r.slot] = isEntry
	})
	d.band.relabel(d.ids)
	d.fence.relabel(d.ids)
}

// strongestFirst orders slots of recs by descending coordinate sum, ties by
// descending lexicographic coordinates: a dominator is coordinate-wise no
// smaller and somewhere larger, so it sorts strictly before what it
// dominates even when rounding makes the two sums equal. Equal records go
// by ascending ids[slot], so the order is total.
func strongestFirst(recs [][]float64, ids []int) func(a, b ranked) int {
	return func(a, b ranked) int {
		switch {
		case a.sum > b.sum: // sums are never NaN: the coordinates are finite
			return -1
		case a.sum < b.sum:
			return 1
		}
		if c := slices.Compare(recs[b.slot], recs[a.slot]); c != 0 {
			return c
		}
		return cmp.Compare(ids[a.slot], ids[b.slot])
	}
}

func coordSum(rec []float64) float64 {
	s := 0.0
	for _, v := range rec {
		s += v
	}
	return s
}

// Plan is a batch that passed validation: the ids its ops are assigned
// (deletes echo their target id) and which of them coalesce. It is made by
// Plan and consumed by Apply, and holds only against the state it was made
// on: no other mutation may come between the two.
type Plan struct {
	ops      []Op
	ids      []int
	coalesce []bool
	napplied int
	gen      uint64 // the structure's applied-plan count at planning
}

// IDs returns the ids the batch's ops are assigned, positionally aligned
// with the ops. They are final once the plan exists; Apply assigns exactly
// these.
func (p *Plan) IDs() []int { return p.ids }

// ApplyOps applies a batch of updates in order and returns the assigned ids
// (deletes echo their target id) and per-op effects, positionally aligned
// with ops: Plan, then Apply at once. Every mutation is a Plan and an Apply:
// the engine calls the two itself, with the index publish between them, and
// Insert and Delete are ApplyOps batches of one.
func (d *Dynamic) ApplyOps(ops []Op) ([]int, []Effect, error) {
	p, err := d.Plan(ops)
	if err != nil {
		return nil, nil, err
	}
	return p.ids, d.Apply(p), nil
}

// Plan validates a batch without mutating anything and fixes its ids: every
// delete must target a live id or the predicted id of an earlier insert of
// the same batch, and no id may be deleted twice. An insert whose predicted
// id a later delete of the batch targets is coalesced away with that delete
// (the id is still consumed, keeping assignment aligned).
func (d *Dynamic) Plan(ops []Op) (*Plan, error) {
	start := time.Now()
	defer func() { d.stats.BandMaintenanceNS += uint64(time.Since(start)) }()
	p := &Plan{ops: ops, ids: make([]int, len(ops)), coalesce: make([]bool, len(ops)), napplied: len(ops), gen: d.gen}
	nextID := d.nextID
	var insPos map[int]int   // predicted id -> op index of the insert
	var deleted map[int]bool // delete targets seen so far
	for i, op := range ops {
		if op.Insert {
			if insPos == nil {
				insPos = make(map[int]int, len(ops))
			}
			insPos[nextID] = i
			p.ids[i] = nextID
			nextID++
			continue
		}
		if deleted[op.ID] {
			return nil, ErrDuplicateDelete
		}
		j, predicted := insPos[op.ID]
		if !predicted && !d.Has(op.ID) {
			return nil, ErrUnknownID
		}
		if deleted == nil {
			deleted = make(map[int]bool, len(ops))
		}
		deleted[op.ID] = true
		p.ids[i] = op.ID
		if predicted {
			p.coalesce[j], p.coalesce[i] = true, true
			p.napplied -= 2
		}
	}
	return p, nil
}

// Apply applies a plan made on the structure's current state (it panics on
// a plan made before another mutation) and returns the per-op effects,
// positionally aligned with the plan's ops.
func (d *Dynamic) Apply(p *Plan) []Effect {
	if p.gen != d.gen {
		panic("skyband: Apply of a stale plan")
	}
	start := time.Now()
	defer func() { d.stats.BandMaintenanceNS += uint64(time.Since(start)) }()
	d.gen++
	d.stats.BatchApplyOps += uint64(p.napplied)
	d.stats.CoalescedOps += uint64(len(p.ops) - p.napplied)

	effs := make([]Effect, len(p.ops))
	// A run of deletes is re-covered once, before the next insert applies or
	// at batch end; what the pass finds is reported on the run's last delete.
	var lastDel *Effect
	for i, op := range p.ops {
		switch {
		case p.coalesce[i] && op.Insert:
			d.SkipID()
		case p.coalesce[i]: // its insert never went live
		case op.Insert:
			if d.reCover() {
				lastDel.BandChanged = true
			}
			effs[i] = d.insert(op.Record)
		default:
			d.delete(op.ID, &effs[i])
			lastDel = &effs[i]
		}
	}
	if d.reCover() {
		lastDel.BandChanged = true
	}
	return effs
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

// insert applies one insert. Requires an empty orphan list (reCover has
// run).
func (d *Dynamic) insert(rec []float64) Effect {
	d.stats.Inserts++
	e := newEntry(d.SkipID(), append([]float64(nil), rec...))
	f := d.findCover(&e)
	d.addLive(e.id, e.rec)
	s := len(d.ids) - 1
	if f != isEntry {
		d.coverBy(s, d.slot[f])
		return Effect{}
	}
	// No fence entry dominates the record, hence no covered record does
	// either (its cover would): the band holds every dominator and the count
	// is exact below k.
	c := d.bandCount(&e)
	if c >= d.k {
		d.admit(s, &e, c)
		d.absorb(e.id)
		return Effect{}
	}

	// A band insert is one more dominator for every entry it dominates: a
	// band entry reaching k moves to the fence.
	bumped := d.band.under(&e, nil)
	d.shift(bumped, 1)
	for _, id := range d.fence.under(&e, nil) {
		d.count[d.slot[id]]++
	}
	var demoted []int
	for _, id := range bumped {
		if bs := d.slot[id]; d.count[bs] == int32(d.k) {
			d.stats.Demotions++
			demoted = append(demoted, id)
			d.move(bs, false)
		}
	}
	d.admit(s, &e, c)
	d.absorb(demoted...)
	return Effect{BandChanged: true, InBand: true}
}

// delete applies one delete of a live id.
func (d *Dynamic) delete(id int, eff *Effect) {
	s := d.slot[id]
	e := newEntry(id, d.recs[s])
	if c := d.cover[s]; c >= 0 && d.orphan.next != orphans && !d.isFence(c) {
		// The target lost its cover earlier in this run of deletes. Unless
		// another fence entry covers it, it may by now be an entry, and only
		// the pass can tell: run it first so InBand is exact.
		if d.findCover(&e) == isEntry {
			eff.BandChanged = d.reCover()
		}
	}
	d.stats.Deletes++
	if d.cover[s] >= 0 {
		d.dropLive(s)
		return // Fact 2: nothing else moves
	}
	d.splice(int32(s), orphans) // a band entry's list is empty
	if d.count[s] >= int32(d.k) {
		d.fence.remove(id, e.rec)
		d.dropLive(s)
		return // a fence entry dominates no entry; only its dependants notice
	}
	d.band.remove(id, e.rec)
	d.relevel(s, d.k)
	d.dropLive(s)
	eff.InBand, eff.BandChanged = true, true
	// One dominator fewer for every entry e dominated. A fence bound that
	// would fall below k is recounted against the band (Fact 1) and, if the
	// record truly has fewer than k dominators now, it joins the band and its
	// dependants are orphaned.
	d.shift(d.band.under(&e, nil), -1)
	for _, id := range d.fence.under(&e, nil) {
		xs := d.slot[id]
		if d.count[xs] > int32(d.k) {
			d.count[xs]--
			continue
		}
		x := newEntry(id, d.recs[xs])
		if c := d.bandCount(&x); c < d.k { // else the bound stays k
			d.stats.Promotions++
			d.splice(int32(xs), orphans)
			d.relevel(xs, c)
			d.move(xs, true)
		}
	}
}

// reCover is the re-cover pass, run once per run of deletes: every slot on
// the orphan list searches the fence for another cover; the survivors,
// strongest first, search it again — a fence entry admitted earlier in the
// pass may cover them now — or, every dominator of theirs then being in the
// band, are counted and admitted to the band or the fence. It reports whether
// a record joined the band. Deferring the pass across a run of deletes is
// sound because such a record dominates no entry until it is admitted.
func (d *Dynamic) reCover() (bandChanged bool) {
	if d.orphan.next == orphans {
		return false
	}
	d.stats.Repairs++
	var pend []ranked
	for s := d.orphan.next; s != orphans; {
		next := d.link[s].next
		d.stats.RepairSteps++
		e := newEntry(d.ids[s], d.recs[s])
		if f := d.findCover(&e); f != isEntry {
			d.coverBy(int(s), d.slot[f])
		} else {
			pend = append(pend, ranked{sum: e.sum, slot: int(s)})
		}
		s = next
	}
	d.orphan = links{orphans, orphans}
	slices.SortFunc(pend, strongestFirst(d.recs, d.ids))
	for _, r := range pend {
		e := newEntry(d.ids[r.slot], d.recs[r.slot])
		if f := d.findCover(&e); f != isEntry {
			d.coverBy(r.slot, d.slot[f])
			continue
		}
		d.link[r.slot] = links{int32(r.slot), int32(r.slot)}
		c := d.bandCount(&e)
		if c < d.k {
			d.stats.Promotions++
			bandChanged = true
		}
		d.admit(r.slot, &e, c)
	}
	return bandChanged
}

// findCover returns the cover-column value for q: the id of the first fence
// entry dominating it that the fence's grid finds, or isEntry when there is
// none.
func (d *Dynamic) findCover(q *entry) int {
	_, first := d.fence.dominators(q, 1)
	return first
}

// bandCount is the number of band entries dominating q, counted up to k —
// by Fact 1 the dominator count of any entry or entry-to-be, exact below k.
func (d *Dynamic) bandCount(q *entry) int {
	n, _ := d.band.dominators(q, d.k)
	return n
}

// absorb is run for the records that just joined the fence: the fence
// entries one of them dominates are no longer on the skyline of the non-band
// records, so each becomes covered by it, and so do their dependants, whose
// lists join its own.
func (d *Dynamic) absorb(joined ...int) {
	for _, id := range joined {
		gs := d.slot[id]
		g := newEntry(id, d.recs[gs])
		for _, x := range d.fence.under(&g, nil) {
			d.stats.ShadowEvictions++
			xs := int32(d.slot[x])
			for s := d.link[xs].next; s != xs; s = d.link[s].next {
				d.cover[s] = id
			}
			d.splice(xs, int32(gs))
			d.coverBy(int(xs), gs)
			d.fence.remove(x, d.recs[xs])
		}
	}
}

// admit makes slot s, probed by e, an entry whose band dominators counted up
// to k are c: a band entry below k, a fence entry of bound k otherwise.
func (d *Dynamic) admit(s int, e *entry, c int) {
	d.cover[s] = isEntry
	if c < d.k {
		d.band.add(e)
	} else {
		d.fence.add(e)
	}
	d.relevel(s, c) // a slot covered before holds a stale count of k or more
}

func (d *Dynamic) isFence(id int) bool {
	s, ok := d.slot[id]
	return ok && d.cover[s] == isEntry && d.count[s] >= int32(d.k)
}

// addLive appends a slot for the record, unclassified (cover unset, count k,
// an empty list of its own).
func (d *Dynamic) addLive(id int, rec []float64) {
	s := int32(len(d.ids))
	d.slot[id] = len(d.ids)
	d.ids = append(d.ids, id)
	d.recs = append(d.recs, rec)
	d.cover = append(d.cover, unset)
	d.count = append(d.count, int32(d.k))
	d.link = append(d.link, links{s, s})
}

// coverBy points slot s at the fence entry in slot f and puts it on that
// entry's list.
func (d *Dynamic) coverBy(s, f int) {
	d.cover[s] = d.ids[f]
	d.push(int32(f), int32(s))
}

// dropLive frees slot s — a covered record, or an entry whose list is empty —
// by moving the last slot into it.
func (d *Dynamic) dropLive(s int) {
	if d.cover[s] >= 0 {
		d.unlink(int32(s))
	}
	last := len(d.ids) - 1
	delete(d.slot, d.ids[s])
	if s != last {
		d.ids[s], d.recs[s], d.cover[s], d.count[s] = d.ids[last], d.recs[last], d.cover[last], d.count[last]
		d.slot[d.ids[s]] = s
		d.relink(int32(last), int32(s))
	}
	d.recs[last] = nil
	d.ids, d.recs, d.cover, d.count, d.link = d.ids[:last], d.recs[:last], d.cover[:last], d.count[:last], d.link[:last]
}

// node returns the links of x: a slot's, or the orphan list head's.
func (d *Dynamic) node(x int32) *links {
	if x == orphans {
		return &d.orphan
	}
	return &d.link[x]
}

// push puts slot s at the front of the list headed by h.
func (d *Dynamic) push(h, s int32) {
	hd := d.node(h)
	d.link[s] = links{hd.next, h}
	d.node(hd.next).prev = s
	hd.next = s
}

// unlink takes slot s off its list.
func (d *Dynamic) unlink(s int32) {
	l := d.link[s]
	d.node(l.prev).next = l.next
	d.node(l.next).prev = l.prev
}

// splice moves the whole list headed by from to the front of the list headed
// by to, leaving from's empty.
func (d *Dynamic) splice(from, to int32) {
	f := d.node(from)
	if f.next == from {
		return
	}
	first, last := f.next, f.prev
	*f = links{from, from}
	t := d.node(to)
	d.link[last].next = t.next
	d.node(t.next).prev = last
	d.link[first].prev = to
	t.next = first
}

// relink moves the list node in slot from to slot to, and its neighbours'
// links with it.
func (d *Dynamic) relink(from, to int32) {
	l := d.link[from]
	if l.next == from { // a head with an empty list
		d.link[to] = links{to, to}
		return
	}
	d.link[to] = l
	d.node(l.next).prev = to
	d.node(l.prev).next = to
}

// relevel sets slot s's count to c and moves its record between the count
// levels: a count of k or more is outside the band. Every change of a band
// entry's count but shift's, and every band admission or departure, goes
// through here, so the levels are always the band.
func (d *Dynamic) relevel(s, c int) {
	id := d.ids[s]
	byID := func(m member, id int) int { return m.id - id }
	if from := d.count[s]; from < int32(d.k) {
		i, _ := slices.BinarySearchFunc(d.levels[from], id, byID)
		d.levels[from] = slices.Delete(d.levels[from], i, i+1)
		for n := len(d.levels); n > 0 && len(d.levels[n-1]) == 0; n-- {
			d.levels = d.levels[:n-1] // an emptied top level keeps its capacity for a regrowth
		}
	}
	if d.count[s] = int32(c); c < d.k {
		if c >= len(d.levels) {
			d.levels = slices.Grow(d.levels, c+1-len(d.levels))[:c+1]
		}
		i, _ := slices.BinarySearchFunc(d.levels[c], id, byID)
		d.levels[c] = slices.Insert(d.levels[c], i, member{rec: d.recs[s], id: id})
	}
}

// shift changes the count of every band entry in ids by delta (±1), moving
// each between the count levels as relevel would, but with one merge per
// level touched: an update that moves much of the band, such as an insert
// dominating it, costs the band's size, not that size times a level's. An
// entry reaching k leaves the levels; the caller moves it to the fence.
func (d *Dynamic) shift(ids []int, delta int) {
	out := make([][]int, len(d.levels)) // the leavers' ids, by the level they leave
	for _, id := range ids {
		s := d.slot[id]
		out[d.count[s]] = append(out[d.count[s]], id)
		d.count[s] += int32(delta)
	}
	left := make([][]member, len(out))
	for c, o := range out {
		if len(o) == 0 {
			continue
		}
		slices.Sort(o)
		stay, i := d.levels[c][:0], 0
		for _, m := range d.levels[c] {
			if i < len(o) && o[i] == m.id {
				left[c] = append(left[c], m)
				i++
			} else {
				stay = append(stay, m)
			}
		}
		clear(d.levels[c][len(stay):])
		d.levels[c] = stay
	}
	for c, l := range left {
		if to := c + delta; len(l) > 0 && to < d.k {
			if to >= len(d.levels) {
				d.levels = append(d.levels, nil)
			}
			d.levels[to] = mergeByID(d.levels[to], l)
		}
	}
	for n := len(d.levels); n > 0 && len(d.levels[n-1]) == 0; n-- {
		d.levels = d.levels[:n-1] // an emptied top level keeps its capacity for a regrowth
	}
}

// mergeByID merges b, sorted by id, into a, sorted by id, from the back.
func mergeByID(a, b []member) []member {
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	for w := len(a) - 1; j >= 0; w-- {
		if i >= 0 && a[i].id > b[j].id {
			a[w], i = a[i], i-1
		} else {
			a[w], j = b[j], j-1
		}
	}
	return a
}

// move carries the entry in slot s from the fence's grid to the band's, or
// with toBand unset the other way. Its count is the caller's to set.
func (d *Dynamic) move(s int, toBand bool) {
	e := newEntry(d.ids[s], d.recs[s])
	from, to := d.band, d.fence
	if toBand {
		from, to = to, from
	}
	from.remove(e.id, e.rec)
	to.add(&e)
}

// Band returns the current k-skyband as parallel id/record/count slices, with
// exact dominator counts, sorted count-major with ties by id — the count
// levels laid end to end: for every j ≤ k the j-skyband is the prefix of the
// entries with count < j. The returned slices are fresh; the record slices
// are shared and must not be mutated.
func (d *Dynamic) Band() ([]int, [][]float64, []int) {
	ids, recs, counts := make([]int, 0, d.band.rows), make([][]float64, 0, d.band.rows), make([]int, 0, d.band.rows)
	for c, level := range d.levels {
		for _, m := range level {
			ids, recs, counts = append(ids, m.id), append(recs, m.rec), append(counts, c)
		}
	}
	return ids, recs, counts
}

// InBand reports whether id is currently a band member: live with fewer than
// k dominators. It is the per-id equivalent of membership in Band()'s id
// slice, without materializing the snapshot.
func (d *Dynamic) InBand(id int) bool {
	s, ok := d.slot[id]
	return ok && d.cover[s] == isEntry && d.count[s] < int32(d.k)
}

// Len returns the number of live records.
func (d *Dynamic) Len() int { return len(d.ids) }

// Has reports whether id is live.
func (d *Dynamic) Has(id int) bool { _, ok := d.slot[id]; return ok }

// Tracked reports whether id is currently an entry (band ∪ fence).
func (d *Dynamic) Tracked(id int) bool { s, ok := d.slot[id]; return ok && d.cover[s] == isEntry }

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
	st.SupersetSize = d.band.rows
	st.ShadowSize = d.fence.rows
	return st
}
