package skyband

import (
	"errors"
	"slices"
)

// DynamicState is a deep, serializable snapshot of a Dynamic: the live
// records, the id allocator and the lifetime maintenance counters. The band,
// the fence and the cover column are not stored — they are a function of the
// live records (see Dynamic), so RestoreDynamic builds them as NewDynamic
// does, and a restored structure behaves under further updates exactly as
// the original would. This is the only shape: internal/store converts a
// state persisted by an older structure into it when it decodes the state.
type DynamicState struct {
	// K is the band depth served; NextID the id the next insert will be
	// assigned.
	K      int
	NextID int
	// LiveIDs/LiveRecs are the live records, parallel. State lists them in
	// the band pass's order — strongest first, ties by id — so restoring
	// them needs no sort; RestoreDynamic takes any order. The record slices
	// are shared with the structure and must not be mutated.
	LiveIDs  []int
	LiveRecs [][]float64
	// Lifetime maintenance counters (see DynamicStats).
	Inserts    uint64
	Deletes    uint64
	Promotions uint64
	Demotions  uint64
	Evictions  uint64
}

// State captures the structure's full dataset state. The returned record
// slices are shared (records are immutable once inserted); everything else is
// fresh.
func (d *Dynamic) State() *DynamicState {
	st := &DynamicState{
		K:          d.k,
		NextID:     d.nextID,
		LiveIDs:    make([]int, len(d.ids)),
		LiveRecs:   make([][]float64, len(d.ids)),
		Inserts:    d.stats.Inserts,
		Deletes:    d.stats.Deletes,
		Promotions: d.stats.Promotions,
		Demotions:  d.stats.Demotions,
		Evictions:  d.stats.ShadowEvictions,
	}
	for i, r := range rank(d.recs, d.ids) {
		st.LiveIDs[i], st.LiveRecs[i] = d.ids[r.slot], d.recs[r.slot]
	}
	return st
}

// RestoreDynamic builds a Dynamic over a state's live records; it is the one
// constructor (NewDynamic numbers its records and calls it, CountBand reads
// the band of what NewDynamic builds). The live records take their slots
// strongest first — sorted only when the state does not list them so
// already — and then the band pass (see sweep) and the fence pass (see
// buildFence) classify them. The state's slices are not retained; record
// slices are shared.
func RestoreDynamic(st *DynamicState) (*Dynamic, error) {
	if st == nil {
		return nil, errors.New("skyband: nil dynamic state")
	}
	if st.K <= 0 || st.K > 1<<31-1 { // the count column is int32
		return nil, errors.New("skyband: band depth must be in [1, 2^31)")
	}
	if len(st.LiveIDs) != len(st.LiveRecs) {
		return nil, errors.New("skyband: misaligned state slices")
	}
	d := newDynamic(st.K, len(st.LiveIDs))
	d.nextID = st.NextID
	d.stats = DynamicStats{
		Inserts:         st.Inserts,
		Deletes:         st.Deletes,
		Promotions:      st.Promotions,
		Demotions:       st.Demotions,
		ShadowEvictions: st.Evictions,
	}
	order := rank(st.LiveRecs, st.LiveIDs)
	for s, r := range order {
		id := st.LiveIDs[r.slot]
		if id < 0 || id >= st.NextID {
			return nil, errors.New("skyband: live id outside allocator range in state")
		}
		d.addLive(id, st.LiveRecs[r.slot])
		order[s].slot = s
	}
	if len(d.slot) != len(d.ids) { // a repeated id overwrote its slot
		return nil, errors.New("skyband: duplicate live id in state")
	}
	d.buildFence(d.sweep(order))
	return d, nil
}

// rank returns the slots of recs strongest first, ties by ids. One pass
// checks the slots' own order; only a failed check sorts.
func rank(recs [][]float64, ids []int) []ranked {
	order := make([]ranked, len(recs))
	for s, rec := range recs {
		order[s] = ranked{sum: coordSum(rec), slot: s}
	}
	if by := strongestFirst(recs, ids); !slices.IsSortedFunc(order, by) {
		slices.SortFunc(order, by)
	}
	return order
}
