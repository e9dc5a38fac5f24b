package shard

import (
	"errors"

	"repro/internal/skyband"
)

// State is a deep, serializable snapshot of a partitioned band: the per-part
// dynamic skyband states plus the routing tables and id allocators. The owner
// table is not stored — it is derivable (each part's live local ids, mapped
// through LocalToGlobal, locate every live global record), so recovery
// recomputes it instead of persisting a redundant copy that could drift.
type State struct {
	// NextGlobal is the global id allocator, NextPart the round-robin cursor.
	NextGlobal int
	NextPart   int
	// LocalToGlobal is the per-part append-only routing table: the global
	// id assigned to each local id, indexed by local id.
	LocalToGlobal [][]int
	// Parts are the per-part skyband states, index-aligned with part numbers.
	Parts []*skyband.DynamicState
}

// State captures the band's full dataset state. Record slices are shared with
// the parts and must not be mutated; everything else is fresh.
func (b *Band) State() *State {
	st := &State{
		NextGlobal:    b.nextGlobal,
		NextPart:      b.nextPart,
		LocalToGlobal: make([][]int, len(b.parts)),
		Parts:         make([]*skyband.DynamicState, len(b.parts)),
	}
	for p, dyn := range b.parts {
		st.LocalToGlobal[p] = append([]int(nil), b.localToGlobal[p]...)
		st.Parts[p] = dyn.State()
	}
	return st
}

// Restore rebuilds a partitioned band from a captured state, each part by
// skyband.RestoreDynamic; the owner table is recomputed from the parts' live
// ids and the routing tables. A partitioned dataset recovers at its original
// partitioning; resharding is a data migration, not a recovery.
func Restore(st *State) (*Band, error) {
	if st == nil || len(st.Parts) == 0 || len(st.LocalToGlobal) != len(st.Parts) {
		return nil, errors.New("shard: misaligned state: parts vs routing tables")
	}
	if st.NextPart < 0 || st.NextPart >= len(st.Parts) {
		return nil, errors.New("shard: round-robin cursor out of range in state")
	}
	b := &Band{
		parts:         make([]*skyband.Dynamic, len(st.Parts)),
		owner:         make(map[int]place),
		localToGlobal: make([][]int, len(st.Parts)),
		nextGlobal:    st.NextGlobal,
		nextPart:      st.NextPart,
		stale:         true,
	}
	for p, pst := range st.Parts {
		dyn, err := skyband.RestoreDynamic(pst)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			b.k = dyn.K()
		} else if dyn.K() != b.k {
			return nil, errors.New("shard: parts disagree on band depth in state")
		}
		l2g := append([]int(nil), st.LocalToGlobal[p]...)
		if len(l2g) != pst.NextID {
			return nil, errors.New("shard: routing table does not cover part id allocator")
		}
		for _, lid := range pst.LiveIDs {
			g := l2g[lid]
			if g < 0 || g >= st.NextGlobal {
				return nil, errors.New("shard: global id outside allocator range in state")
			}
			if _, dup := b.owner[g]; dup {
				return nil, errors.New("shard: global id owned by two shards in state")
			}
			b.owner[g] = place{part: p, local: lid}
		}
		b.localToGlobal[p] = l2g
		b.parts[p] = dyn
	}
	return b, nil
}
