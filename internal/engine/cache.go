package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rescache"
)

// fingerprint canonicalizes a query into a cache key. Two queries share a key
// iff they ask for the same variant, the same k, the same ablation switches,
// and geometrically the same region. Region canonicalization normalizes every bounding half-space to unit length and
// sorts them, so the same polytope described with rescaled or reordered
// half-spaces maps to one key; the float bits are used exactly, so any
// numeric perturbation of the region is a miss (never a false hit).
func fingerprint(v Variant, k int, r *geom.Region, opts core.Options) string {
	// Canonical rows are appended to one buffer and sorted as spans of it;
	// both start on the stack and spill to the heap only for large regions.
	var bufArr [512]byte
	var spansArr [16][2]int
	buf, spans := bufArr[:0], spansArr[:0]
	if hs := r.HalfspacesView(); len(hs) > 0 {
		for _, h := range hs {
			start := len(buf)
			buf = appendCanonicalHalfspace(buf, h)
			spans = append(spans, [2]int{start, len(buf)})
		}
	} else {
		// Vertex-only regions (no H-representation): key on the vertex set.
		for _, vert := range r.VerticesView() {
			start := len(buf)
			for _, c := range vert {
				buf = appendFloat(buf, c)
			}
			spans = append(spans, [2]int{start, len(buf)})
		}
	}
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]])
	})

	// Layout: a fpHeaderLen-byte prefix (variant, 3 bytes of k, flags)
	// followed by the sorted canonical region rows. probeGroupID relies on
	// these offsets.
	var key strings.Builder
	key.Grow(fpHeaderLen + len(buf))
	key.Write([]byte{byte(v), byte(k), byte(k >> 8), byte(k >> 16), optionFlags(opts)})
	for _, sp := range spans {
		key.Write(buf[sp[0]:sp[1]])
	}
	return key.String()
}

// fingerprint key offsets: k occupies bytes [fpKOffset, fpKEnd), the region
// encoding starts at fpHeaderLen.
const (
	fpKOffset   = 1
	fpKEnd      = 4
	fpHeaderLen = 5
)

// probeGroupID projects a fingerprint key onto the coordinates an
// invalidation probe depends on — the depth k and the canonical region
// encoding — dropping the variant and ablation flags. An
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

// appendCanonicalHalfspace appends A·w ≥ B scaled to ‖A‖₂ = 1 (the one
// positive scaling that preserves the half-space). Trivial constraints
// (A = 0) keep only the sign of B, which is all that matters for them.
func appendCanonicalHalfspace(out []byte, h geom.Halfspace) []byte {
	norm := 0.0
	for _, a := range h.A {
		norm += a * a
	}
	norm = math.Sqrt(norm)
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
