package store

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/engine"
	"repro/internal/skyband"
)

// The v1 snapshot layout, which older builds wrote and this file only reads.
// After the header comes a kind byte: a single engine's state, or a
// partitioned engine's routing header and one engine state per part. A v1
// band state carries, besides what v2 keeps, three slots of the retired
// shadow band (its retention depth, its coverage, its rebuild counter) and
// the band: member ids with their dominator counts. The slots and the
// member lists are read, checked as their writer's reader checked them, and
// dropped: a restore builds the band from the records.
const (
	snapKindSingle  = 1
	snapKindSharded = 2
)

// decodeV1 reads a v1 snapshot's body after its header; epoch is the
// header's. A failure is left in d.err.
func decodeV1(d *decoder, epoch uint64) *engine.State {
	switch d.byte() {
	case snapKindSingle:
		return decodeEngineStateV1(d)
	case snapKindSharded:
		st, err := decodeSharded(d, epoch)
		if d.err == nil {
			d.err = err
		}
		return st
	}
	d.fail("unknown snapshot kind")
	return nil
}

func decodeEngineStateV1(d *decoder) *engine.State {
	st := &engine.State{Dim: int(d.uvarint()), Epoch: d.uvarint(), Batches: d.uvarint()}
	dyn := &skyband.DynamicState{K: int(d.uvarint())}
	shadow, coverage := int(d.uvarint()), int(d.uvarint())
	dyn.NextID, dyn.LiveIDs = int(d.uvarint()), d.ints()
	dyn.LiveRecs = d.records(len(dyn.LiveIDs), d.count(maxDim))
	ids, counts := d.ints(), d.ints()
	dyn.Inserts, dyn.Deletes, dyn.Promotions = d.uvarint(), d.uvarint(), d.uvarint()
	dyn.Demotions, dyn.Evictions = d.uvarint(), d.uvarint()
	d.uvarint() // the shadow band's rebuild counter
	if d.err == nil {
		d.err = checkBand(dyn, ids, counts, shadow, coverage)
	}
	st.Dyn = dyn
	return st
}

// checkBand holds a v1 band state to what its writers guaranteed before
// its band is dropped. Live ids ascend. The shadow-banded structure that
// first wrote the layout also listed shadow members, with counts in
// [K, K+shadow), and kept exact membership up to its coverage,
// K ≤ coverage ≤ K+shadow; later writers left shadow 0 and coverage K. A
// member is live, and one with a count below K is a band member, listed
// once, with a count of at least 0; a shadow member is within the
// retention depth.
func checkBand(st *skyband.DynamicState, ids, counts []int, shadow, coverage int) error {
	if shadow < 0 || coverage < st.K || coverage-st.K > shadow || len(ids) != len(counts) {
		return fmt.Errorf("%w: band depth %d, shadow %d, coverage %d, %d members with %d counts", ErrCorrupt, st.K, shadow, coverage, len(ids), len(counts))
	}
	for i := 1; i < len(st.LiveIDs); i++ {
		if st.LiveIDs[i-1] >= st.LiveIDs[i] {
			return fmt.Errorf("%w: live ids %d, %d out of order", ErrCorrupt, st.LiveIDs[i-1], st.LiveIDs[i])
		}
	}
	listed := make([]bool, len(st.LiveIDs))
	for i, id := range ids {
		j, live := slices.BinarySearch(st.LiveIDs, id)
		c := counts[i]
		switch {
		case !live || c < 0:
			return fmt.Errorf("%w: member %d with count %d is not live", ErrCorrupt, id, c)
		case c >= st.K && c-st.K >= shadow:
			return fmt.Errorf("%w: shadow member %d with count %d is past retention", ErrCorrupt, id, c)
		case c < st.K && listed[j]:
			return fmt.Errorf("%w: band member %d listed twice", ErrCorrupt, id)
		}
		listed[j] = listed[j] || c < st.K
	}
	return nil
}

// decodeSharded reads a partitioned engine's snapshot: the routing header,
// then each part as a v1 engine state whose own epoch and batch slots are
// ignored (the dataset's epoch is the header's).
func decodeSharded(d *decoder, epoch uint64) (*engine.State, error) {
	st := &engine.State{Dim: int(d.uvarint()), Epoch: epoch}
	nextGlobal, nextPart := int(d.uvarint()), int(d.uvarint())
	st.Batches = d.uvarint()
	n := d.count(len(d.buf)) // each part's routing table takes a byte at least
	if d.err != nil {
		return nil, d.err
	}
	l2g := make([][]int, n)
	for i := range l2g {
		l2g[i] = d.ints()
	}
	parts := make([]*skyband.DynamicState, n)
	for i := range parts {
		part := decodeEngineStateV1(d)
		if d.err != nil {
			return nil, d.err
		}
		if part.Dim != st.Dim {
			return nil, fmt.Errorf("%w: part %d dimensionality %d, dataset %d", ErrCorrupt, i, part.Dim, st.Dim)
		}
		parts[i] = part.Dyn
	}
	if nextPart < 0 || nextPart >= n {
		return nil, fmt.Errorf("%w: round-robin cursor %d outside %d parts", ErrCorrupt, nextPart, n)
	}
	var err error
	st.Dyn, err = mergeParts(st.Dim, nextGlobal, l2g, parts)
	return st, err
}

// mergeParts converts a partitioned band's state into the live set of the
// one band over the same records: every part's live local ids mapped
// through its routing table (l2g, indexed by local id) to their global ids,
// sorted, with nextGlobal as the id allocator and the lifetime counters
// summed over the parts. Everything is checked before it is used: the bytes
// passed their CRC but are otherwise untrusted.
func mergeParts(dim, nextGlobal int, l2g [][]int, parts []*skyband.DynamicState) (*skyband.DynamicState, error) {
	if len(parts) == 0 || parts[0].K <= 0 || dim <= 0 {
		return nil, fmt.Errorf("%w: sharded snapshot without parts, band depth or dimensionality", ErrCorrupt)
	}
	st := &skyband.DynamicState{K: parts[0].K, NextID: nextGlobal}
	owned := make(map[int][]float64) // live global id → record
	for p, part := range parts {
		if part.K != st.K {
			return nil, fmt.Errorf("%w: part %d band depth %d, part 0 %d", ErrCorrupt, p, part.K, st.K)
		}
		if len(l2g[p]) != part.NextID {
			return nil, fmt.Errorf("%w: part %d routing table holds %d ids, allocator %d", ErrCorrupt, p, len(l2g[p]), part.NextID)
		}
		for i, lid := range part.LiveIDs {
			if lid < 0 || lid >= len(l2g[p]) {
				return nil, fmt.Errorf("%w: part %d live id %d outside its routing table", ErrCorrupt, p, lid)
			}
			g := l2g[p][lid]
			if g < 0 || g >= nextGlobal {
				return nil, fmt.Errorf("%w: part %d global id %d outside allocator %d", ErrCorrupt, p, g, nextGlobal)
			}
			if _, dup := owned[g]; dup {
				return nil, fmt.Errorf("%w: global id %d owned twice", ErrCorrupt, g)
			}
			if len(part.LiveRecs[i]) != dim {
				return nil, fmt.Errorf("%w: part %d record %d has %d attributes, dataset %d", ErrCorrupt, p, lid, len(part.LiveRecs[i]), dim)
			}
			owned[g] = part.LiveRecs[i]
		}
		st.Inserts += part.Inserts
		st.Deletes += part.Deletes
		st.Promotions += part.Promotions
		st.Demotions += part.Demotions
		st.Evictions += part.Evictions
	}
	st.LiveIDs = slices.Sorted(maps.Keys(owned))
	st.LiveRecs = make([][]float64, len(st.LiveIDs))
	for i, g := range st.LiveIDs {
		st.LiveRecs[i] = owned[g]
	}
	return st, nil
}
