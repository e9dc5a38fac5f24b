package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"repro/internal/geom"
)

// fingerprint canonicalizes a query into a cache key. Two queries share a key
// iff they ask for the same variant, the same k, and geometrically the same
// region. Region canonicalization normalizes every bounding half-space to
// unit length and sorts them, so the same polytope described with rescaled
// or reordered half-spaces maps to one key; the float bits are used exactly,
// so any numeric perturbation of the region is a miss (never a false hit).
func fingerprint(v Variant, k int, r *geom.Region) string {
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

	// Layout: a fpHeaderLen-byte prefix (variant, 3 bytes of k) followed by
	// the sorted canonical region rows. No other code reads the layout.
	var key strings.Builder
	key.Grow(fpHeaderLen + len(buf))
	key.Write([]byte{byte(v), byte(k), byte(k >> 8), byte(k >> 16)})
	for _, sp := range spans {
		key.Write(buf[sp[0]:sp[1]])
	}
	return key.String()
}

// fpHeaderLen is the length of the key's header. Its three bytes of k hold
// every k up to maxK, the largest Config.MaxK an engine accepts, so no two
// depths share a key.
const (
	fpHeaderLen = 4
	maxK        = 1<<24 - 1
)

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
