package skyband

import (
	"errors"
	"sort"
)

// DynamicState is a deep, serializable snapshot of a Dynamic — the part of an
// engine's mutable dataset state that cannot be recomputed cheaply (live
// records, member set with exact dominator counts, coverage, id allocator,
// and the lifetime maintenance counters). Restoring it with RestoreDynamic
// yields a structure whose observable behavior under further updates is
// identical to the original's: counts are exact, membership decisions are a
// function of counts and coverage only, and the entry order (which the state
// does not preserve) affects nothing observable.
type DynamicState struct {
	// K is the band depth served; ShadowDepth the retention beyond it
	// (capK = K + ShadowDepth). Coverage is the current membership
	// guarantee depth; NextID the id the next insert will be assigned.
	K           int
	ShadowDepth int
	Coverage    int
	NextID      int
	// LiveIDs/LiveRecs are the live records (parallel, sorted by id). The
	// record slices are shared with the structure and must not be mutated.
	LiveIDs  []int
	LiveRecs [][]float64
	// MemberIDs/MemberCounts are the member set (band ∪ shadow) with exact
	// dominator counts, parallel and sorted by id. Member records live in
	// LiveRecs.
	MemberIDs    []int
	MemberCounts []int
	// Lifetime maintenance counters (see DynamicStats).
	Inserts    uint64
	Deletes    uint64
	Promotions uint64
	Demotions  uint64
	Evictions  uint64
	Rebuilds   uint64
}

// State captures the structure's full dataset state. The returned record
// slices are shared (records are immutable once inserted); everything else is
// fresh.
func (d *Dynamic) State() *DynamicState {
	st := &DynamicState{
		K:           d.k,
		ShadowDepth: d.capK - d.k,
		Coverage:    d.cov,
		NextID:      d.nextID,
		LiveIDs:     make([]int, 0, len(d.live)),
		MemberIDs:   make([]int, 0, len(d.ents)),
		Inserts:     d.stats.Inserts,
		Deletes:     d.stats.Deletes,
		Promotions:  d.stats.Promotions,
		Demotions:   d.stats.Demotions,
		Evictions:   d.stats.ShadowEvictions,
		Rebuilds:    d.stats.Rebuilds,
	}
	for id := range d.live {
		st.LiveIDs = append(st.LiveIDs, id)
	}
	sort.Ints(st.LiveIDs)
	st.LiveRecs = make([][]float64, len(st.LiveIDs))
	for i, id := range st.LiveIDs {
		st.LiveRecs[i] = d.live[id]
	}
	for i := range d.ents {
		st.MemberIDs = append(st.MemberIDs, d.ents[i].id)
	}
	sort.Ints(st.MemberIDs)
	st.MemberCounts = make([]int, len(st.MemberIDs))
	for i, id := range st.MemberIDs {
		st.MemberCounts[i] = d.ents[d.pos[id]].count
	}
	return st
}

// RestoreDynamic rebuilds a Dynamic from a state snapshot without any
// recomputation: member counts are trusted as exact, so recovery costs
// O(live + members) instead of the O(live × members) dominance scan of a
// rebuild. The state's slices are not retained; record slices are shared.
func RestoreDynamic(st *DynamicState) (*Dynamic, error) {
	if st == nil {
		return nil, errors.New("skyband: nil dynamic state")
	}
	if st.K <= 0 || st.ShadowDepth < 0 {
		return nil, errors.New("skyband: invalid band/shadow depth in state")
	}
	if st.Coverage < st.K || st.Coverage > st.K+st.ShadowDepth {
		return nil, errors.New("skyband: coverage out of range in state")
	}
	if len(st.LiveIDs) != len(st.LiveRecs) || len(st.MemberIDs) != len(st.MemberCounts) {
		return nil, errors.New("skyband: misaligned state slices")
	}
	d := &Dynamic{
		k:      st.K,
		capK:   st.K + st.ShadowDepth,
		cov:    st.Coverage,
		live:   make(map[int][]float64, len(st.LiveIDs)),
		pos:    make(map[int]int, len(st.MemberIDs)),
		nextID: st.NextID,
		stats: DynamicStats{
			Inserts:         st.Inserts,
			Deletes:         st.Deletes,
			Promotions:      st.Promotions,
			Demotions:       st.Demotions,
			ShadowEvictions: st.Evictions,
			Rebuilds:        st.Rebuilds,
		},
	}
	for i, id := range st.LiveIDs {
		if id < 0 || id >= st.NextID {
			return nil, errors.New("skyband: live id outside allocator range in state")
		}
		if _, dup := d.live[id]; dup {
			return nil, errors.New("skyband: duplicate live id in state")
		}
		d.live[id] = st.LiveRecs[i]
	}
	for i, id := range st.MemberIDs {
		rec, ok := d.live[id]
		if !ok {
			return nil, errors.New("skyband: member id not live in state")
		}
		c := st.MemberCounts[i]
		if c < 0 || c >= d.capK {
			return nil, errors.New("skyband: member count out of range in state")
		}
		if _, dup := d.pos[id]; dup {
			return nil, errors.New("skyband: duplicate member id in state")
		}
		d.addEntry(dynEntry{id: id, rec: rec, count: c})
		if c < d.k {
			d.band++
		}
	}
	return d, nil
}
