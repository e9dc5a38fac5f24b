// Package rescache is the serving engine's result-cache subsystem: one
// policy engine that is smarter than plain LRU on two axes:
//
//  1. Cost-aware eviction. Entries are not equal: a UTK2 partitioning takes
//     milliseconds of refinement to recompute while a UTK1 id-list is often
//     microseconds. Eviction is Greedy-Dual: each entry carries a retention
//     priority H = L + cost, where L is a floor that inflates to the evicted
//     victim's H on every eviction. Cheap entries age out as L passes their
//     priority; expensive partitionings stay resident even when they are not
//     the most recent, which plain LRU cannot express. With equal costs the
//     policy degenerates to exactly LRU. Victims come off a min-heap, so an
//     overflow costs O(log n) instead of the O(n) scan the first version
//     shipped with.
//  2. A containment index. Entries are grouped by a caller-defined class
//     (variant + algorithm flags) and top-k depth, so a cache miss can ask
//     for a cached entry whose query region contains the missed query's
//     region. The caller then derives the answer geometrically (cell
//     clipping, see ClipCell) instead of recomputing it.
//  3. Update-rate-aware admission. Each class tracks an exponentially
//     decayed count of update-driven invalidations versus admissions; when
//     the update stream keeps killing a class's entries faster than queries
//     re-admit them, new entries of that class are refused outright — under
//     sustained churn, caching them is pure overhead (they die before any
//     hit) and their admissions would evict classes that survive.
//
// The cache is NOT safe for concurrent use; callers serialize access under
// their own mutex, exactly as the serving engines do. Staleness is measured
// with a logical clock (one tick per cache operation) so the policy is
// deterministic under test and free of wall-clock syscalls on the hit path.
package rescache

import (
	"math"

	"repro/internal/geom"
	"repro/internal/lp"
)

// Admission policy knobs: a class is refused admission once its decayed
// invalidation count is both non-trivial (≥ admissionMinInvs) and more than
// admissionRatio times its decayed hit count — i.e. the update stream keeps
// killing the class's entries before queries ever reuse them, so caching the
// class is pure overhead and its admissions would only evict classes that
// survive. The counts decay with a half-life of invHalfLife logical ticks, so
// a class that was churning recovers admission once the update storm passes.
const (
	admissionMinInvs = 4
	admissionRatio   = 2.0
	invHalfLife      = 512
)

// Ledger pruning: every ledgerSweepEvery logical ticks the ledger map is
// swept and entries whose decayed counts have both dropped below
// ledgerPruneEps are deleted. Such a ledger is behaviorally a fresh one —
// refusal requires invs ≥ admissionMinInvs, orders of magnitude above the
// epsilon — so pruning never changes an admission decision; it only bounds
// the map under workloads that rotate through many distinct (class, k)
// groups, which would otherwise accumulate dead ledgers forever.
const (
	ledgerSweepEvery = 4096
	ledgerPruneEps   = 1.0 / 1024
)

// Cache is a bounded result cache with Greedy-Dual cost-aware eviction, an
// update-rate-aware admission policy, and a containment index over the cached
// query regions.
type Cache struct {
	cap    int
	tick   uint64
	m      map[string]*entry
	groups map[groupKey][]*entry
	heap   []*entry // min-heap on (prio, last, key): the next victim is heap[0]
	// Recency list, head = most recent. Only consulted to report whether an
	// eviction was cost-driven (victim ≠ the LRU tail) — the policy itself
	// never walks it.
	head, tail *entry
	infl       float64 // Greedy-Dual floor L: the last victim's priority
	stats      map[groupKey]*classStats
}

// groupKey buckets entries for containment lookups: only entries of the same
// class (variant + flags) at the same top-k depth can answer for each other.
type groupKey struct {
	class uint32
	k     int
}

// classStats is the admission ledger for one class: decayed counts of
// update-driven invalidations and of hits, with the tick of the last decay
// so the decay is applied lazily.
type classStats struct {
	invs float64
	hits float64
	last uint64
}

type entry struct {
	key    string
	region *geom.Region
	k      int
	class  uint32
	cost   float64
	last   uint64  // logical time of last use
	prio   float64 // Greedy-Dual priority: floor at last touch + cost
	hix    int     // index in the eviction heap
	gix    int     // index in the containment group's slice
	val    any
	// neighbors in the recency list
	prev, next *entry
}

// Entry is one resident row as seen by an invalidation scan: the key to
// evict by plus the query shape to probe with.
type Entry struct {
	Key    string
	Region *geom.Region
	K      int
}

// New builds a cache bounded to capacity entries (capacity ≥ 1).
func New(capacity int) *Cache {
	return &Cache{
		cap:    capacity,
		m:      make(map[string]*entry, capacity),
		groups: make(map[groupKey][]*entry),
		heap:   make([]*entry, 0, capacity),
		stats:  make(map[groupKey]*classStats),
	}
}

// now advances the logical clock, amortizing the ledger sweep over it.
func (c *Cache) now() uint64 {
	c.tick++
	if c.tick%ledgerSweepEvery == 0 {
		c.pruneLedgers()
	}
	return c.tick
}

// pruneLedgers decays every admission ledger to the current tick and deletes
// the ones indistinguishable from a fresh ledger (see ledgerPruneEps). Cost
// is O(ledgers) once per ledgerSweepEvery ticks.
func (c *Cache) pruneLedgers() {
	for gk, st := range c.stats {
		if dt := c.tick - st.last; dt > 0 {
			f := math.Exp2(-float64(dt) / invHalfLife)
			st.invs *= f
			st.hits *= f
			st.last = c.tick
		}
		if st.invs < ledgerPruneEps && st.hits < ledgerPruneEps {
			delete(c.stats, gk)
		}
	}
}

// Ledgers reports the admission-ledger population (distinct (class, k)
// groups currently tracked) — an observability hook for tests pinning the
// map's boundedness under rotating-group workloads.
func (c *Cache) Ledgers() int { return len(c.stats) }

// touch marks the entry used: its recency refreshes and its priority is
// re-anchored to the current floor, so a hot entry keeps outliving the floor
// inflation that ages out untouched ones.
func (c *Cache) touch(e *entry) {
	e.last = c.now()
	e.prio = c.infl + e.cost
	c.heapFix(e)
	c.listMoveFront(e)
}

// Get returns the value cached under the key, refreshing its recency.
func (c *Cache) Get(key string) (any, bool) {
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.touch(e)
	c.classStat(groupKey{class: e.class, k: e.k}).hits++
	return e.val, true
}

// Peek returns the value cached under the key without touching its recency.
// Callers use it to re-verify that a value observed earlier is still the
// resident one (pointer identity) before acting on derived state.
func (c *Cache) Peek(key string) (any, bool) {
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	return e.val, true
}

// classStat returns the admission ledger for the group, decayed to the
// current tick. Counts halve every invHalfLife ticks, applied lazily here so
// the hit path never pays for idle classes.
func (c *Cache) classStat(gk groupKey) *classStats {
	st := c.stats[gk]
	if st == nil {
		st = &classStats{last: c.tick}
		c.stats[gk] = st
		return st
	}
	if dt := c.tick - st.last; dt > 0 {
		f := math.Exp2(-float64(dt) / invHalfLife)
		st.invs *= f
		st.hits *= f
		st.last = c.tick
	}
	return st
}

// Add inserts (or refreshes) an entry. cost is the measured recompute cost
// of the value (any positive unit; values below 1 are clamped so the floor
// inflation always discriminates). admitted reports whether the entry is
// resident afterwards — false means the admission policy refused it because
// the update stream has been invalidating its class's entries before queries
// reuse them. evicted reports whether an older entry was displaced to make
// room, and costDriven whether that victim differed from the one plain LRU
// would have chosen.
func (c *Cache) Add(key string, region *geom.Region, k int, class uint32, cost float64, val any) (admitted, evicted, costDriven bool) {
	if cost < 1 {
		cost = 1
	}
	if e, ok := c.m[key]; ok {
		e.val, e.cost = val, cost
		c.touch(e)
		return true, false, false
	}
	gk := groupKey{class: class, k: k}
	last := c.now()
	st := c.classStat(gk)
	if st.invs >= admissionMinInvs && st.invs > admissionRatio*(st.hits+1) {
		return false, false, false
	}
	e := &entry{key: key, region: region, k: k, class: class, cost: cost, val: val, last: last, prio: c.infl + cost}
	c.m[key] = e
	e.gix = len(c.groups[gk])
	c.groups[gk] = append(c.groups[gk], e)
	c.heapPush(e)
	c.listPushFront(e)
	if len(c.m) <= c.cap {
		return true, false, false
	}
	// Overflow: evict the minimum-priority resident. The just-added entry is
	// exempt (it is the reason for the eviction), so it steps out of the heap
	// while the victim is chosen. The heap tie-breaks equal priorities toward
	// the staler entry, then the smaller key, so the choice is deterministic
	// under the logical clock — and with equal costs the minimum priority is
	// exactly the least-recently-used entry. The floor inflates to the
	// victim's priority, which is what ages resident-but-cold entries.
	c.heapRemove(e)
	victim := c.heap[0]
	costDriven = victim != c.tail
	c.infl = victim.prio
	c.remove(victim)
	c.heapPush(e)
	return true, true, costDriven
}

// FindContaining returns a cached value of the given class and depth whose
// query region contains r, preferring the most recently used source, or ok =
// false when no resident region contains r. A successful lookup counts as a
// use of the source entry (its recency is refreshed) and returns the source's
// key so the caller can later re-verify residency with Peek.
func (c *Cache) FindContaining(class uint32, k int, r *geom.Region) (val any, key string, ok bool) {
	var best *entry
	for _, e := range c.groups[groupKey{class: class, k: k}] {
		if (best == nil || e.last > best.last) && e.region.ContainsRegion(r) {
			best = e
		}
	}
	if best == nil {
		return nil, "", false
	}
	c.touch(best)
	c.classStat(groupKey{class: best.class, k: best.k}).hits++
	return best.val, best.key, true
}

// Snapshot lists the resident entries' keys and query shapes for an
// invalidation scan.
func (c *Cache) Snapshot() []Entry {
	out := make([]Entry, 0, len(c.m))
	for _, e := range c.m {
		out = append(out, Entry{Key: e.key, Region: e.region, K: e.k})
	}
	return out
}

// EvictKeys removes the listed entries (if still resident), returning the
// number actually evicted. It does not touch the admission ledgers — use it
// for removals that say nothing about the update stream (capacity trims,
// shutdown). Update-driven invalidation goes through InvalidateKeys.
func (c *Cache) EvictKeys(keys []string) int {
	n := 0
	for _, key := range keys {
		if e, ok := c.m[key]; ok {
			c.remove(e)
			n++
		}
	}
	return n
}

// InvalidateKeys removes the listed entries because an update made their
// values stale, returning the number actually removed. Each removal is
// charged to its class's admission ledger; a class whose entries keep dying
// here loses admission eligibility until the churn decays away.
func (c *Cache) InvalidateKeys(keys []string) int {
	n := 0
	for _, key := range keys {
		e, ok := c.m[key]
		if !ok {
			continue
		}
		c.now()
		c.classStat(groupKey{class: e.class, k: e.k}).invs++
		c.remove(e)
		n++
	}
	return n
}

// Len is the current cache population.
func (c *Cache) Len() int { return len(c.m) }

// remove deletes the entry from the key map, the eviction heap, the recency
// list, and its containment group.
func (c *Cache) remove(e *entry) {
	delete(c.m, e.key)
	if e.hix >= 0 {
		c.heapRemove(e)
	}
	c.listRemove(e)
	gk := groupKey{class: e.class, k: e.k}
	g := c.groups[gk]
	last := len(g) - 1
	if e.gix != last {
		g[e.gix] = g[last]
		g[e.gix].gix = e.gix
	}
	g[last] = nil
	g = g[:last]
	if len(g) == 0 {
		delete(c.groups, gk)
	} else {
		c.groups[gk] = g
	}
}

// Eviction heap: a min-heap on (prio, last, key). Equal priorities break
// toward the staler entry — with equal costs every priority is the floor at
// touch time plus the same constant, so the heap order is exactly recency
// order and the policy degenerates to LRU.

func (c *Cache) heapLess(a, b *entry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.last != b.last {
		return a.last < b.last
	}
	return a.key < b.key
}

func (c *Cache) heapSwap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	h[i].hix = i
	h[j].hix = j
}

func (c *Cache) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.heapLess(c.heap[i], c.heap[p]) {
			return
		}
		c.heapSwap(i, p)
		i = p
	}
}

func (c *Cache) heapDown(i int) {
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(c.heap) && c.heapLess(c.heap[l], c.heap[s]) {
			s = l
		}
		if r < len(c.heap) && c.heapLess(c.heap[r], c.heap[s]) {
			s = r
		}
		if s == i {
			return
		}
		c.heapSwap(i, s)
		i = s
	}
}

func (c *Cache) heapPush(e *entry) {
	e.hix = len(c.heap)
	c.heap = append(c.heap, e)
	c.heapUp(e.hix)
}

func (c *Cache) heapRemove(e *entry) {
	i, n := e.hix, len(c.heap)-1
	if i != n {
		c.heapSwap(i, n)
	}
	c.heap[n] = nil
	c.heap = c.heap[:n]
	if i != n {
		c.heapDown(i)
		c.heapUp(i)
	}
	e.hix = -1
}

// heapFix restores heap order after e's priority changed in place.
func (c *Cache) heapFix(e *entry) {
	c.heapDown(e.hix)
	c.heapUp(e.hix)
}

// Recency list maintenance (head = most recent, tail = LRU).

func (c *Cache) listPushFront(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

func (c *Cache) listRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) listMoveFront(e *entry) {
	if c.head == e {
		return
	}
	c.listRemove(e)
	c.listPushFront(e)
}

// ClipCell clips one convex cell — given by its bounding half-spaces and a
// strictly interior point — to the query region r, returning the clipped
// cell's bounding half-spaces and a strictly interior point of the
// intersection. ok is false when the intersection is empty or not
// full-dimensional (the same SlackEps discipline the arrangement uses for
// its own cells), in which case the cell contributes nothing to the clipped
// answer.
//
// boxLo/boxHi, when non-nil, are a sound outer bounding box of the cell the
// caller already holds (JAA computes one per cell at emit time); the box
// classification fast path then runs without re-deriving bounds, so sliver
// cells whose box misses r skip their clip LPs with no propagation work at
// all. Passing nil recomputes the bounds here.
//
// This is the geometric core of containment-based reuse: the top-k order is
// constant within a UTK2 cell, so for R ⊆ R' the non-empty intersections
// {C ∩ R : C ∈ UTK2(R')} partition R with unchanged top-k sets — an exact
// answer for R without touching RSA or JAA. The fast path reuses the cell's
// own interior point whenever it already lies strictly inside r (a ball
// around it then lies in both bodies, so the intersection is
// full-dimensional and the point remains interior); only cells straddling
// r's boundary pay for an LP.
func ClipCell(dim int, cons []geom.Halfspace, interior []float64, boxLo, boxHi []float64, r *geom.Region) ([]geom.Halfspace, []float64, bool) {
	pt, ok := clipInterior(dim, cons, interior, boxLo, boxHi, r)
	if !ok {
		return nil, nil, false
	}
	return r.ClipConstraints(cons), pt, true
}

// CellIntersects reports whether the cell has a full-dimensional
// intersection with r, without materializing the clipped constraint set —
// the allocation-light form UTK1 derivation uses, where only the surviving
// cells' id sets matter. boxLo/boxHi are as in ClipCell.
func CellIntersects(dim int, cons []geom.Halfspace, interior []float64, boxLo, boxHi []float64, r *geom.Region) bool {
	_, ok := clipInterior(dim, cons, interior, boxLo, boxHi, r)
	return ok
}

// clipInterior decides whether cell ∩ r is full-dimensional and returns a
// strictly interior point of the intersection.
func clipInterior(dim int, cons []geom.Halfspace, interior []float64, boxLo, boxHi []float64, r *geom.Region) ([]float64, bool) {
	if !r.HasHRep() {
		// A vertex-only region has no half-spaces to clip against; treating
		// the cell as surviving unclipped would be a wrong (superset)
		// answer, so refuse every cell — callers fall back to computing.
		return nil, false
	}
	// Cheapest test first: a precomputed cell box classifies most cells in
	// O(m·dim) with no propagation, no allocation, and no LP — in
	// particular, sliver cells whose box already misses r are dropped
	// outright.
	if boxLo != nil {
		switch r.ClassifyBox(boxLo, boxHi) {
		case geom.Outside:
			return nil, false
		case geom.Inside:
			return interior, true
		}
	}
	// In a near-miss workload most remaining cells' own interior points
	// already lie strictly inside r, which certifies a full-dimensional
	// intersection with the point still valid — allocation-free, no LP.
	if r.InteriorBy(interior, lp.SlackEps) {
		return interior, true
	}
	// Without a precomputed box, derive a sound outer bounding box of the
	// cell (interval propagation over its constraints, no LP) and classify.
	// Only cells whose bound straddles r's boundary go on to the clamp fast
	// path and, last, the LP.
	if boxLo == nil {
		if blo, bhi, bounded := geom.ConstraintBounds(dim, cons, 24); bounded {
			switch r.ClassifyBox(blo, bhi) {
			case geom.Outside:
				return nil, false
			case geom.Inside:
				return interior, true
			}
		}
	}
	// Second fast path, for box regions (the common case): clamp the cell's
	// interior point into r by a small margin and check it still satisfies
	// every cell constraint with slack. When it does, the clamped point is
	// strictly inside both bodies — the intersection is full-dimensional and
	// the point is a valid interior — without running an LP. Only sliver
	// cells near r's boundary (and genuinely disjoint ones) fall through.
	if lo, hi := r.Bounds(); lo != nil {
		pt := make([]float64, dim)
		feasibleClamp := true
		for i := 0; i < dim; i++ {
			margin := lp.SlackEps
			if side := hi[i] - lo[i]; side < 3*margin {
				feasibleClamp = false
				break
			}
			pt[i] = min(max(interior[i], lo[i]+margin), hi[i]-margin)
		}
		if feasibleClamp && insideAllBy(cons, pt, lp.SlackEps) {
			return pt, true
		}
	}
	// Last resort: the LP, from the cell's own interior point.
	pt, _, ok := lp.InteriorPoint(dim, r.ClipConstraints(cons), interior)
	return pt, ok
}

// insideAllBy reports whether pt satisfies every half-space with normalized
// slack at least margin.
func insideAllBy(cons []geom.Halfspace, pt []float64, margin float64) bool {
	for _, h := range cons {
		norm := 0.0
		for _, a := range h.A {
			norm += a * a
		}
		if norm <= geom.Eps*geom.Eps {
			if h.B > geom.Eps {
				return false
			}
			continue
		}
		if h.Eval(pt) < margin*math.Sqrt(norm) {
			return false
		}
	}
	return true
}
