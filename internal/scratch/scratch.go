// Package scratch provides a per-task bump allocator for the transient
// working memory of the refinement algorithms: the bitsets the JAA partition
// recursion and RSA verification clone at every level, the drill probe's
// visited sets, and the LP workspace the arrangement's interior-point and
// clip LPs reuse.
//
// Ownership rules (also documented in the README design note):
//
//   - An Arena belongs to exactly one task (one RSA or JAA refinement)
//     from Get to Put. It is never shared across goroutines.
//   - Memory handed out by Words lives until Release; Release invalidates
//     every slice the arena ever handed out in this cycle.
//   - Nothing that outlives the task — emitted CellResults, cached graphs,
//     solutions — may alias arena memory. Escaping values are deep-copied at
//     the emit boundary; the -race differential suites run concurrent
//     queries, each on its own pooled arena, to catch violations.
package scratch

import "sync"

// chunkWords is the minimum chunk size (8 KiB of uint64s). Oversized
// requests get a dedicated chunk.
const chunkWords = 1024

// Arena is a bump allocator over uint64 and int chunks. The zero value is
// ready to use.
type Arena struct {
	chunks [][]uint64
	ci     int // index of the chunk currently being bumped
	off    int // next free word in chunks[ci]

	ichunks [][]int
	ici     int
	ioff    int
}

// Words returns a zeroed slice of n words backed by the arena. The slice is
// valid until Release.
func (a *Arena) Words(n int) []uint64 {
	if n == 0 {
		return nil
	}
	for a.ci < len(a.chunks) {
		c := a.chunks[a.ci]
		if a.off+n <= len(c) {
			w := c[a.off : a.off+n : a.off+n]
			a.off += n
			clear(w)
			return w
		}
		a.ci++
		a.off = 0
	}
	size := chunkWords
	if n > size {
		size = n
	}
	c := make([]uint64, size)
	a.chunks = append(a.chunks, c)
	a.ci = len(a.chunks) - 1
	a.off = n
	return c[0:n:n]
}

// Ints returns a length-zero int slice with capacity n backed by the arena
// (contents are appended by the caller, so no zeroing is needed). The slice
// is valid until Release.
func (a *Arena) Ints(n int) []int {
	if n == 0 {
		return nil
	}
	for a.ici < len(a.ichunks) {
		c := a.ichunks[a.ici]
		if a.ioff+n <= len(c) {
			s := c[a.ioff : a.ioff : a.ioff+n]
			a.ioff += n
			return s
		}
		a.ici++
		a.ioff = 0
	}
	size := chunkWords
	if n > size {
		size = n
	}
	c := make([]int, size)
	a.ichunks = append(a.ichunks, c)
	a.ici = len(a.ichunks) - 1
	a.ioff = n
	return c[0:0:n]
}

// Mark is a rewind point: the arena's bump positions at the time of the
// call.
type Mark struct{ ci, off, ici, ioff int }

// Mark captures the current bump positions. Rewinding to the mark frees
// everything allocated after it.
func (a *Arena) Mark() Mark { return Mark{a.ci, a.off, a.ici, a.ioff} }

// Rewind frees every allocation made since the mark was taken. Recursive
// refinement frames mark on entry and rewind on exit, so the arena's live
// footprint tracks the recursion depth, not the total work.
func (a *Arena) Rewind(m Mark) {
	a.ci, a.off, a.ici, a.ioff = m.ci, m.off, m.ici, m.ioff
}

// Release rewinds the arena: all previously returned slices are up for
// reuse. Chunks are retained, so a released-then-reused arena allocates
// nothing in steady state.
func (a *Arena) Release() {
	a.ci = 0
	a.off = 0
	a.ici = 0
	a.ioff = 0
}

var pool = sync.Pool{New: func() interface{} { return new(Arena) }}

// Get takes a released arena from the process-wide pool (or a fresh one).
func Get() *Arena {
	return pool.Get().(*Arena)
}

// Put releases the arena and returns it to the pool. The caller must not
// touch any memory obtained from it afterwards.
func Put(a *Arena) {
	a.Release()
	pool.Put(a)
}
