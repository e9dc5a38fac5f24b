// Package bitset provides a compact fixed-capacity bit set used for the
// r-dominance graph's ancestor/descendant sets and for the competitor
// bookkeeping of the refinement recursions, where set algebra over a few
// thousand candidates must be cheap.
package bitset

import "math/bits"

// Set is a bit set over indices [0, capacity). The zero value is unusable;
// create sets with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity n.
func New(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Words returns the number of backing words a set of capacity n needs —
// the size to request from an external allocator for FromWords.
func Words(n int) int { return (n + 63) / 64 }

// FromWords wraps an externally allocated (and zeroed) word buffer as a set
// of capacity n. The buffer must hold at least Words(n) words; the set
// aliases it, so the buffer's lifetime bounds the set's.
func FromWords(words []uint64, n int) Set {
	return Set{words: words[:Words(n)], n: n}
}

// CloneInto copies s into a set backed by the given word buffer (at least
// Words(n) long; contents are overwritten). It is Clone for callers that
// manage backing memory themselves.
func (s Set) CloneInto(words []uint64) Set {
	w := words[:len(s.words)]
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// Len returns the capacity of the set.
func (s Set) Len() int { return s.n }

// Set marks index i.
func (s Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear unmarks index i.
func (s Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether index i is marked.
func (s Set) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of marked indices.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// Or sets s to s ∪ t in place.
func (s Set) Or(t Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AndNot sets s to s \ t in place.
func (s Set) AndNot(t Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// And sets s to s ∩ t in place.
func (s Set) And(t Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s Set) IntersectionCount(t Set) int {
	c := 0
	for i, w := range s.words {
		if i >= len(t.words) {
			break
		}
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// Empty reports whether no index is marked.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every marked index in ascending order; fn returning
// false stops the iteration.
func (s Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi<<6 + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the marked indices in ascending order.
func (s Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
