package engine

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rescache"
)

// fingerprint canonicalizes a query into a cache key. Two queries share a key
// iff they ask for the same variant, the same k, the same ablation switches,
// the same worker count, and geometrically the same region. Workers
// participates because a decomposed UTK2 run may carve its (exact) cells
// differently than a sequential one — keying per worker setting keeps every
// cached answer byte-deterministic for its request shape. Region
// canonicalization normalizes every bounding half-space to unit length and
// sorts them, so the same polytope described with rescaled or reordered
// half-spaces maps to one key; the float bits are used exactly, so any
// numeric perturbation of the region is a miss (never a false hit).
func fingerprint(v Variant, k int, r *geom.Region, opts core.Options) string {
	hs := r.Halfspaces()
	rows := make([][]byte, 0, len(hs))
	for _, h := range hs {
		rows = append(rows, canonicalHalfspace(h))
	}
	if len(rows) == 0 {
		// Vertex-only regions (no H-representation): key on the vertex set.
		for _, vert := range r.Vertices() {
			row := make([]byte, 0, len(vert)*8)
			for _, c := range vert {
				row = appendFloat(row, c)
			}
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return string(rows[a]) < string(rows[b]) })

	workers := opts.Workers
	if workers < 1 {
		workers = 1 // 0 and 1 both mean sequential refinement
	}
	if workers > core.MaxWorkers {
		workers = core.MaxWorkers // execution clamps here too, so keys match behavior
	}
	// Layout: a fpHeaderLen-byte prefix (variant, 3 bytes of k, flags, 2
	// bytes of workers) followed by the sorted canonical region rows.
	// probeGroupID relies on these offsets.
	key := make([]byte, 0, 16+len(rows)*(r.Dim()+1)*8)
	key = append(key, byte(v), byte(k), byte(k>>8), byte(k>>16))
	key = append(key, optionFlags(opts), byte(workers), byte(workers>>8))
	for _, row := range rows {
		key = append(key, row...)
	}
	return string(key)
}

// fingerprint key offsets: k occupies bytes [fpKOffset, fpKEnd), the region
// encoding starts at fpHeaderLen.
const (
	fpKOffset   = 1
	fpKEnd      = 4
	fpHeaderLen = 7
)

// probeGroupID projects a fingerprint key onto the coordinates an
// invalidation probe depends on — the depth k and the canonical region
// encoding — dropping the variant, ablation flags, and worker count. An
// update's affects verdict for a cached entry is a function of (region, k)
// only, so entries sharing a group id live or die together under any batch
// and can share one probe.
func probeGroupID(key string) string {
	return key[fpKOffset:fpKEnd] + key[fpHeaderLen:]
}

// optionFlags packs the answer-affecting ablation switches into the byte the
// fingerprint (and the containment class) discriminates on.
func optionFlags(opts core.Options) byte {
	var flags byte
	if opts.DisableDrill {
		flags |= 1
	}
	if opts.LinearDrill {
		flags |= 2
	}
	return flags
}

// canonicalHalfspace encodes A·w ≥ B scaled to ‖A‖₂ = 1 (the one positive
// scaling that preserves the half-space). Trivial constraints (A = 0) keep
// only the sign of B, which is all that matters for them.
func canonicalHalfspace(h geom.Halfspace) []byte {
	norm := 0.0
	for _, a := range h.A {
		norm += a * a
	}
	norm = math.Sqrt(norm)
	out := make([]byte, 0, (len(h.A)+1)*8)
	if norm <= geom.Eps {
		sign := 0.0
		if h.B > 0 {
			sign = 1
		} else if h.B < 0 {
			sign = -1
		}
		return appendFloat(out, sign)
	}
	for _, a := range h.A {
		out = appendFloat(out, a/norm)
	}
	return appendFloat(out, h.B/norm)
}

func appendFloat(b []byte, v float64) []byte {
	if v == 0 {
		v = 0 // collapse -0 and +0
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// containClass buckets cache entries for containment lookups: only entries
// computed for the same variant under the same ablation switches can answer
// for one another geometrically.
func containClass(v Variant, opts core.Options) uint32 {
	return uint32(v)<<8 | uint32(optionFlags(opts))
}

// cacheEntry is one resident result-cache row as seen by an invalidation
// scan: the key to evict by plus the query shape to probe with.
type cacheEntry struct {
	Key    string
	Region *geom.Region
	K      int
}

// resultCache is the typed adapter between the Engine and the rescache
// subsystem (cost-aware eviction, containment-based reuse, probe-then-evict
// invalidation) under canonical fingerprint keys. It is not safe for
// concurrent use; the Engine serializes access under its mutex.
type resultCache struct {
	c *rescache.Cache
}

// newResultCache builds a cache bounded to capacity entries (capacity ≥ 1).
func newResultCache(capacity int) *resultCache {
	return &resultCache{c: rescache.New(capacity)}
}

// Get returns the cached result for the key, refreshing its recency.
func (c *resultCache) Get(key string) (*Result, bool) {
	v, ok := c.c.Get(key)
	if !ok {
		return nil, false
	}
	return v.(*Result), true
}

// Peek returns the cached result without refreshing recency; callers use
// pointer identity against an earlier Get/FindContaining to confirm an
// entry survived the interval (capacity eviction, invalidation, and
// replacement all break identity).
func (c *resultCache) Peek(key string) (*Result, bool) {
	v, ok := c.c.Peek(key)
	if !ok {
		return nil, false
	}
	return v.(*Result), true
}

// Add inserts (or refreshes) the result computed for req under the key,
// recording the result's recompute cost for the eviction policy. admitted is
// false when the update-rate-aware admission policy refused the entry (its
// class keeps being invalidated before reuse); evicted reports whether an
// older entry was displaced to make room, and costDriven whether that choice
// differed from the victim plain LRU would have picked.
func (c *resultCache) Add(key string, req Request, res *Result) (admitted, evicted, costDriven bool) {
	return c.c.Add(key, req.Region, req.K, containClass(req.Variant, req.Opts), float64(res.Cost), res)
}

// FindContaining looks for a cached UTK2 result whose query region contains
// req's region, at req's depth and under req's ablation switches — the
// containment source a miss for req (either variant) can be derived from by
// cell clipping. It returns the source result and its cache key.
func (c *resultCache) FindContaining(req Request) (*Result, string, bool) {
	v, key, ok := c.c.FindContaining(containClass(UTK2, req.Opts), req.K, req.Region)
	if !ok {
		return nil, "", false
	}
	return v.(*Result), key, true
}

// Snapshot lists the resident entries for an invalidation scan.
func (c *resultCache) Snapshot() []cacheEntry {
	rows := c.c.Snapshot()
	out := make([]cacheEntry, len(rows))
	for i, r := range rows {
		out[i] = cacheEntry{Key: r.Key, Region: r.Region, K: r.K}
	}
	return out
}

// InvalidateKeys removes the listed entries because an update made them
// stale, charging each removal to its class's admission ledger so classes
// the update stream keeps killing stop being cached while the churn lasts.
func (c *resultCache) InvalidateKeys(keys []string) int { return c.c.InvalidateKeys(keys) }

// Len is the current cache population.
func (c *resultCache) Len() int { return c.c.Len() }
