// Package legacytest writes snapshots in layouts only older engines wrote —
// a partitioned engine's, and a single engine's whose band state carries the
// retired shadow band — so tests can check that such data reopens as today's
// one band. It writes the frozen layouts byte by byte with its own encoder
// rather than the store's, so the format stays pinned.
package legacytest

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/skyband"
)

// Band is a band state as v1 writers wrote it: the state, its live records
// by ascending id, and the band's members by id with their dominator counts
// (a shadow-banded writer also listed shadow members, counts K and up).
type Band struct {
	skyband.DynamicState
	MemberIDs, MemberCounts []int
}

// FromState lists a state as a v1 writer did: its live records by id, and
// its band — the records with fewer than K dominators — by id, each with
// its exact count.
func FromState(st *skyband.DynamicState) *Band {
	b := &Band{DynamicState: *st}
	byID := make([]int, len(st.LiveIDs))
	for i := range byID {
		byID[i] = i
	}
	slices.SortFunc(byID, func(i, j int) int { return st.LiveIDs[i] - st.LiveIDs[j] })
	b.LiveIDs, b.LiveRecs = make([]int, len(byID)), make([][]float64, len(byID))
	for i, j := range byID {
		b.LiveIDs[i], b.LiveRecs[i] = st.LiveIDs[j], st.LiveRecs[j]
	}
	idx, counts := skyband.CountBand(b.LiveRecs, b.K)
	count := make([]int, len(b.LiveIDs)) // count+1 per band member, 0 elsewhere
	for i, j := range idx {
		count[j] = counts[i] + 1
	}
	for j, c := range count {
		if c > 0 {
			b.MemberIDs, b.MemberCounts = append(b.MemberIDs, b.LiveIDs[j]), append(b.MemberCounts, c-1)
		}
	}
	return b
}

// Sharded is a partitioned engine's snapshot: the routing header and one
// band state per part, whose local id i is global id L2G[p][i].
type Sharded struct {
	Dim, NextGlobal, NextPart int
	L2G                       [][]int
	Parts                     []*Band
}

// Shadow is a single engine's snapshot written by the shadow-banded
// structure: its member lists may also hold shadow members, with counts in
// [K, K+ShadowDepth), and its band was exact up to Coverage.
type Shadow struct {
	Dim                   int
	State                 *Band
	ShadowDepth, Coverage int
	Rebuilds              uint64
}

// Partition splits recs round-robin over the given number of parts, as a
// partitioned engine placed them, with one dynamic band of depth k per part.
func Partition(recs [][]float64, parts, k int) (*Sharded, error) {
	s := &Sharded{Dim: len(recs[0]), NextGlobal: len(recs), NextPart: len(recs) % parts, L2G: make([][]int, parts)}
	split := make([][][]float64, parts)
	for g, rec := range recs {
		s.L2G[g%parts] = append(s.L2G[g%parts], g)
		split[g%parts] = append(split[g%parts], rec)
	}
	for _, part := range split {
		dyn, err := skyband.NewDynamic(part, k)
		if err != nil {
			return nil, err
		}
		s.Parts = append(s.Parts, FromState(dyn.State()))
	}
	return s, nil
}

// Encode writes the snapshot payload (the bytes inside its CRC frame) in the
// frozen sharded layout: the header with kind 2, the routing header, then
// each part as an engine state whose own epoch and batch slots are zero and
// whose shadow band slots are 0, K and 0.
func (s *Sharded) Encode(seq, epoch, batches uint64) []byte {
	b := u(header(seq, epoch, 2), uint64(s.Dim), uint64(s.NextGlobal), uint64(s.NextPart), batches, uint64(len(s.Parts)))
	for _, ids := range s.L2G {
		b = ints(b, ids)
	}
	for _, p := range s.Parts {
		b = engineState(b, s.Dim, 0, 0, p, 0, p.K, 0)
	}
	return b
}

// Encode writes the snapshot payload in the single-engine layout: the header
// with kind 1, then the engine state.
func (s *Shadow) Encode(seq, epoch, batches uint64) []byte {
	return engineState(header(seq, epoch, 1), s.Dim, epoch, batches, s.State, s.ShadowDepth, s.Coverage, s.Rebuilds)
}

// header starts a payload: snapshot version 1, the header, the kind.
func header(seq, epoch uint64, kind byte) []byte {
	return append(u([]byte{1}, seq, epoch, 1700000000000), kind)
}

// engineState appends an engine state — dimensionality, epoch, batches —
// and its band state with the shadow band's slots.
func engineState(b []byte, dim int, epoch, batches uint64, p *Band, shadow, coverage int, rebuilds uint64) []byte {
	b = u(b, uint64(dim), epoch, batches, uint64(p.K), uint64(shadow), uint64(coverage), uint64(p.NextID))
	b = ints(b, p.LiveIDs)
	if len(p.LiveRecs) == 0 {
		dim = 0 // a band without live records wrote dimensionality 0
	}
	b = u(b, uint64(dim))
	for _, rec := range p.LiveRecs {
		for _, f := range rec {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	b = ints(ints(b, p.MemberIDs), p.MemberCounts)
	return u(b, p.Inserts, p.Deletes, p.Promotions, p.Demotions, p.Evictions, rebuilds)
}

func u(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func ints(b []byte, vs []int) []byte {
	b = u(b, uint64(len(vs)))
	for _, v := range vs {
		b = u(b, uint64(v))
	}
	return b
}
