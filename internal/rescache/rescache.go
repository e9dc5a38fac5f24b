// Package rescache is the serving engine's result-cache subsystem, in three
// parts:
//
//  1. Plain LRU eviction. An overflow evicts the least recently used entry,
//     the tail of a recency list, in O(1), so which entries are resident is
//     a function of the request stream alone.
//  2. A containment index. Entries are grouped by a caller-defined class
//     (the engine's is the query variant) and top-k depth, so a cache miss
//     can ask for a cached entry whose query region contains the missed
//     query's region. The caller then derives the answer geometrically (cell
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

// Cache is a bounded LRU cache of V values with an update-rate-aware
// admission policy and a containment index over the cached query regions.
type Cache[V any] struct {
	cap    int
	tick   uint64
	m      map[string]*entry[V]
	groups map[groupKey][]*entry[V]
	// Recency list, head = most recent: the next victim is the tail.
	head, tail *entry[V]
	stats      map[groupKey]*classStats
}

// groupKey buckets entries for containment lookups: only entries of the same
// class (the variant) at the same top-k depth can answer for each other.
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

type entry[V any] struct {
	key    string
	region *geom.Region
	k      int
	class  uint32
	last   uint64 // logical time of last use
	gix    int    // index in the containment group's slice
	val    V
	// neighbors in the recency list
	prev, next *entry[V]
}

// Entry is one resident row as seen by an invalidation scan: the key to
// evict by plus the query shape to probe with.
type Entry struct {
	Key    string
	Region *geom.Region
	K      int
}

// New builds a cache bounded to capacity entries (capacity ≥ 1). The key map
// grows with use: presized to a large capacity, it would cost tens of bytes
// per slot before a single entry exists.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:    capacity,
		m:      make(map[string]*entry[V]),
		groups: make(map[groupKey][]*entry[V]),
		stats:  make(map[groupKey]*classStats),
	}
}

// now advances the logical clock, amortizing the ledger sweep over it.
func (c *Cache[V]) now() uint64 {
	c.tick++
	if c.tick%ledgerSweepEvery == 0 {
		c.pruneLedgers()
	}
	return c.tick
}

// pruneLedgers decays every admission ledger to the current tick and deletes
// the ones indistinguishable from a fresh ledger (see ledgerPruneEps). Cost
// is O(ledgers) once per ledgerSweepEvery ticks.
func (c *Cache[V]) pruneLedgers() {
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
func (c *Cache[V]) Ledgers() int { return len(c.stats) }

// touch marks the entry used: it becomes the most recent.
func (c *Cache[V]) touch(e *entry[V]) {
	e.last = c.now()
	c.listMoveFront(e)
}

// Get returns the value cached under the key, refreshing its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.touch(e)
	c.classStat(groupKey{class: e.class, k: e.k}).hits++
	return e.val, true
}

// Peek returns the value cached under the key without touching its recency.
// Callers use it to re-verify that a value observed earlier is still the
// resident one (pointer identity) before acting on derived state.
func (c *Cache[V]) Peek(key string) (V, bool) {
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// classStat returns the admission ledger for the group, decayed to the
// current tick. Counts halve every invHalfLife ticks, applied lazily here so
// the hit path never pays for idle classes.
func (c *Cache[V]) classStat(gk groupKey) *classStats {
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

// Add inserts (or refreshes) an entry. admitted reports whether the entry
// is resident afterwards — false means the admission policy refused it
// because the update stream has been invalidating its class's entries before
// queries reuse them. evicted reports whether the least recently used entry
// was displaced to make room.
func (c *Cache[V]) Add(key string, region *geom.Region, k int, class uint32, val V) (admitted, evicted bool) {
	if e, ok := c.m[key]; ok {
		e.val = val
		c.touch(e)
		return true, false
	}
	gk := groupKey{class: class, k: k}
	last := c.now()
	st := c.classStat(gk)
	if st.invs >= admissionMinInvs && st.invs > admissionRatio*(st.hits+1) {
		return false, false
	}
	e := &entry[V]{key: key, region: region, k: k, class: class, val: val, last: last}
	c.m[key] = e
	e.gix = len(c.groups[gk])
	c.groups[gk] = append(c.groups[gk], e)
	c.listPushFront(e)
	if len(c.m) <= c.cap {
		return true, false
	}
	// Overflow: the tail is the least recently used entry, never the one
	// just added (capacity ≥ 1, so at least two entries are resident).
	c.remove(c.tail)
	return true, true
}

// FindContaining returns a cached value of the given class and depth whose
// query region contains r, preferring the most recently used source, or ok =
// false when no resident region contains r. A successful lookup counts as a
// use of the source entry (its recency is refreshed) and returns the source's
// key so the caller can later re-verify residency with Peek.
func (c *Cache[V]) FindContaining(class uint32, k int, r *geom.Region) (val V, key string, ok bool) {
	var best *entry[V]
	for _, e := range c.groups[groupKey{class: class, k: k}] {
		if (best == nil || e.last > best.last) && e.region.ContainsRegion(r) {
			best = e
		}
	}
	if best == nil {
		return val, "", false
	}
	c.touch(best)
	c.classStat(groupKey{class: best.class, k: best.k}).hits++
	return best.val, best.key, true
}

// Snapshot lists the resident entries' keys and query shapes for an
// invalidation scan.
func (c *Cache[V]) Snapshot() []Entry {
	out := make([]Entry, 0, len(c.m))
	for _, e := range c.m {
		out = append(out, Entry{Key: e.key, Region: e.region, K: e.k})
	}
	return out
}

// InvalidateKeys removes the listed entries because an update made their
// values stale, returning the number actually removed. Each removal is
// charged to its class's admission ledger; a class whose entries keep dying
// here loses admission eligibility until the churn decays away.
func (c *Cache[V]) InvalidateKeys(keys []string) int {
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
func (c *Cache[V]) Len() int { return len(c.m) }

// remove deletes the entry from the key map, the recency list, and its
// containment group.
func (c *Cache[V]) remove(e *entry[V]) {
	delete(c.m, e.key)
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

// Recency list maintenance (head = most recent, tail = LRU).

func (c *Cache[V]) listPushFront(e *entry[V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

func (c *Cache[V]) listRemove(e *entry[V]) {
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

func (c *Cache[V]) listMoveFront(e *entry[V]) {
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
