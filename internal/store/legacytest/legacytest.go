// Package legacytest writes the snapshot a partitioned engine left on disk
// before the engine became one band, so tests can check that such data
// reopens as that one band. It writes the frozen layout byte by byte with its
// own encoder rather than the store's, so the format stays pinned.
package legacytest

import (
	"encoding/binary"
	"math"

	"repro/internal/skyband"
)

// Sharded is a partitioned engine's snapshot: the routing header and one
// band state per part, whose local id i is global id L2G[p][i].
type Sharded struct {
	Dim, NextGlobal, NextPart int
	L2G                       [][]int
	Parts                     []*skyband.DynamicState
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
		s.Parts = append(s.Parts, dyn.State())
	}
	return s, nil
}

// Encode writes the snapshot payload (the bytes inside its CRC frame) in the
// frozen sharded layout: version 1, the header, kind 2, the routing header,
// then each part as an engine state whose own epoch and batch slots are zero.
func (s *Sharded) Encode(seq, epoch, batches uint64) []byte {
	var b []byte
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	ints := func(vs []int) {
		u(uint64(len(vs)))
		for _, v := range vs {
			u(uint64(v))
		}
	}
	b = append(b, 1)
	u(seq)
	u(epoch)
	u(1700000000000)
	b = append(b, 2)
	for _, v := range []int{s.Dim, s.NextGlobal, s.NextPart} {
		u(uint64(v))
	}
	u(batches)
	u(uint64(len(s.Parts)))
	for _, ids := range s.L2G {
		ints(ids)
	}
	for _, p := range s.Parts {
		for _, v := range []int{s.Dim, 0, 0, p.K, p.ShadowDepth, p.Coverage, p.NextID} {
			u(uint64(v))
		}
		ints(p.LiveIDs)
		if len(p.LiveRecs) == 0 {
			u(0) // a part without live records wrote dimensionality 0
		} else {
			u(uint64(s.Dim))
		}
		for _, rec := range p.LiveRecs {
			for _, f := range rec {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			}
		}
		ints(p.MemberIDs)
		ints(p.MemberCounts)
		for _, v := range []uint64{p.Inserts, p.Deletes, p.Promotions, p.Demotions, p.Evictions, p.Rebuilds} {
			u(v)
		}
	}
	return b
}
