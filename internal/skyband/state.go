package skyband

import (
	"errors"
	"slices"
)

// DynamicState is a deep, serializable snapshot of a Dynamic: the live
// records, the band with its exact dominator counts, the id allocator and the
// lifetime maintenance counters. The fence and the cover column are not
// stored — they are a function of the live set and the band (see Dynamic), so
// RestoreDynamic rebuilds them, and a restored structure behaves under
// further updates exactly as the original would.
type DynamicState struct {
	// K is the band depth served; NextID the id the next insert will be
	// assigned. ShadowDepth and Coverage are legacy: the retention depth
	// beyond K and the membership guarantee depth of the shadow-banded
	// structure this one replaced (PR 18). They keep their place in the
	// persisted layout; State writes 0 and K, and RestoreDynamic only
	// validates them.
	K           int
	ShadowDepth int
	Coverage    int
	NextID      int
	// LiveIDs/LiveRecs are the live records (parallel, sorted by id). The
	// record slices are shared with the structure and must not be mutated.
	LiveIDs  []int
	LiveRecs [][]float64
	// MemberIDs/MemberCounts are the band with exact dominator counts,
	// parallel and sorted by id; member records live in LiveRecs. A legacy
	// state also lists shadow members (count in [K, K+ShadowDepth)), which
	// RestoreDynamic drops.
	MemberIDs    []int
	MemberCounts []int
	// Lifetime maintenance counters (see DynamicStats). Rebuilds is legacy,
	// written as 0.
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
		K:          d.k,
		Coverage:   d.k,
		NextID:     d.nextID,
		LiveIDs:    slices.Clone(d.ids),
		LiveRecs:   make([][]float64, len(d.ids)),
		Inserts:    d.stats.Inserts,
		Deletes:    d.stats.Deletes,
		Promotions: d.stats.Promotions,
		Demotions:  d.stats.Demotions,
		Evictions:  d.stats.ShadowEvictions,
	}
	slices.Sort(st.LiveIDs)
	for i, id := range st.LiveIDs {
		st.LiveRecs[i] = d.recs[d.slot[id]]
	}
	st.MemberIDs, _, _ = d.Band()
	slices.Sort(st.MemberIDs) // Band's order is count-major; snapshots stay id-sorted
	st.MemberCounts = make([]int, len(st.MemberIDs))
	for i, id := range st.MemberIDs {
		st.MemberCounts[i] = d.ents[d.pos[id]].count
	}
	return st
}

// RestoreDynamic rebuilds a Dynamic from a state snapshot. The band's counts
// are trusted as exact — a legacy state's guarantee (Coverage ≥ K) makes its
// members below K exactly the band as well — so recovery costs one
// strongest-first fence pass over the other live records (the grid pass of
// buildFence) instead of a recomputation of the band. The state's slices are
// not retained; record slices are shared.
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
	d := newDynamic(st.K, len(st.LiveIDs), len(st.MemberIDs))
	d.nextID = st.NextID
	d.stats = DynamicStats{
		Inserts:         st.Inserts,
		Deletes:         st.Deletes,
		Promotions:      st.Promotions,
		Demotions:       st.Demotions,
		ShadowEvictions: st.Evictions,
	}
	for i, id := range st.LiveIDs {
		if id < 0 || id >= st.NextID {
			return nil, errors.New("skyband: live id outside allocator range in state")
		}
		d.addLive(id, st.LiveRecs[i])
	}
	if len(d.slot) != len(d.ids) { // a repeated id overwrote its slot
		return nil, errors.New("skyband: duplicate live id in state")
	}
	for i, id := range st.MemberIDs {
		s, ok := d.slot[id]
		if !ok {
			return nil, errors.New("skyband: member id not live in state")
		}
		c := st.MemberCounts[i]
		if c < 0 || c >= st.K+st.ShadowDepth {
			return nil, errors.New("skyband: member count out of range in state")
		}
		if d.Tracked(id) {
			return nil, errors.New("skyband: duplicate member id in state")
		}
		if c < st.K {
			d.cover[s] = isEntry
			d.addEntry(newEntry(id, d.recs[s], c), true)
		}
	}
	rest := make([]ranked, 0, len(d.ids)-d.nb)
	for s, c := range d.cover {
		if c == unset {
			rest = append(rest, ranked{sum: coordSum(d.recs[s]), slot: s})
		}
	}
	slices.SortFunc(rest, strongestFirst(d.recs))
	d.buildFence(rest)
	return d, nil
}
