package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
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
	for _, h := range r.HalfspacesView() {
		start := len(buf)
		buf = appendCanonicalHalfspace(buf, h)
		spans = append(spans, [2]int{start, len(buf)})
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
// encoding starts at fpHeaderLen. Three bytes hold every k up to maxK, the
// largest Config.MaxK an engine accepts, so no two depths share a key.
const (
	fpKOffset   = 1
	fpKEnd      = 4
	fpHeaderLen = 5
	maxK        = 1<<24 - 1
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
