package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"unsafe"

	"repro/internal/geom"
)

// fingerprint canonicalizes a query into a cache key. Two queries share a key
// iff they ask for the same variant, the same k, and geometrically the same
// region. Region canonicalization normalizes every bounding half-space to
// unit length and sorts them, so the same polytope described with rescaled
// or reordered half-spaces maps to one key; the float bits are used exactly,
// so any numeric perturbation of the region is a miss (never a false hit). A
// box takes boxKey, which writes the same bytes from its corners without
// normalizing or sorting anything.
func fingerprint(v Variant, k int, r *geom.Region) string {
	if lo, hi := r.BoundsView(); lo != nil {
		return boxKey(v, k, lo, hi)
	}
	return halfspaceKey(v, k, r.HalfspacesView())
}

// requestKey is the cache key of req: the fingerprint of its Region, or the
// key of the box its corners give.
func requestKey(req *Request) string {
	if req.Region != nil {
		return fingerprint(req.Variant, req.K, req.Region)
	}
	return boxKey(req.Variant, req.K, req.Lo, req.Hi)
}

// halfspaceKey is the generic key: the canonical rows sorted as bytes.
func halfspaceKey(v Variant, k int, hs []geom.Halfspace) string {
	// Canonical rows are appended to one buffer and sorted as spans of it;
	// both start on the stack and spill to the heap only for large regions.
	var bufArr [512]byte
	var spansArr [16][2]int
	buf, spans := bufArr[:0], spansArr[:0]
	for _, h := range hs {
		start := len(buf)
		buf = appendCanonicalHalfspace(buf, h)
		spans = append(spans, [2]int{start, len(buf)})
	}
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]])
	})

	key := make([]byte, 0, fpHeaderLen+len(buf))
	key = appendHeader(key, v, k)
	for _, sp := range spans {
		key = append(key, buf[sp[0]:sp[1]]...)
	}
	return keyString(key)
}

// boxKey is the key halfspaceKey gives the box [lo, hi]'s 2·dim rows. Each
// row is already canonical (‖±e_i‖ = 1), and the byte sort always orders
// them the same way: a row's first non-zero coefficient byte is the top byte
// of its ±1 at axis i, so a higher axis sorts first (its row is still zero
// there), and at one axis e_i's 0x3f byte sorts before −e_i's 0xbf. So the
// rows are written axis dim−1 down to 0, (e_i, lo_i) before (−e_i, −hi_i).
func boxKey(v Variant, k int, lo, hi []float64) string {
	dim := len(lo)
	key := make([]byte, 0, fpHeaderLen+2*dim*(dim+1)*8)
	key = appendHeader(key, v, k)
	for i := dim - 1; i >= 0; i-- {
		key = appendAxisRow(key, dim, i, 1, lo[i])
		key = appendAxisRow(key, dim, i, -1, -hi[i])
	}
	return keyString(key)
}

// appendAxisRow appends the canonical row a·e_axis·w ≥ b for a = ±1.
func appendAxisRow(out []byte, dim, axis int, a, b float64) []byte {
	for j := 0; j < dim; j++ {
		if j == axis {
			out = appendFloat(out, a)
		} else {
			out = appendFloat(out, 0)
		}
	}
	return appendFloat(out, b)
}

// appendHeader appends the key's fpHeaderLen-byte header: the variant and 3
// bytes of k. The sorted canonical region rows follow it; no other code
// reads the layout.
func appendHeader(out []byte, v Variant, k int) []byte {
	return append(out, byte(v), byte(k), byte(k>>8), byte(k>>16))
}

// keyString hands a finished key's bytes over as the string, without a
// copy: the caller never writes b again.
func keyString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

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
