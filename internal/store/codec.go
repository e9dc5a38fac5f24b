package store

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/skyband"
)

// Binary codec for WAL batches and snapshots. The encoding is versioned,
// little-endian, and self-delimiting: uvarints for counts/ids/counters,
// raw IEEE-754 bits for coordinates. Integrity is enforced one level up by
// the CRC frame around each encoded payload, so the codec itself only
// defends against structural nonsense (truncated payloads, absurd counts).

const (
	batchVersion    = 1
	snapshotVersion = 1

	snapKindSingle  = 1
	snapKindSharded = 2

	opKindInsert = 1
	opKindDelete = 2

	// maxSliceLen bounds every decoded count: a frame passed its CRC, but a
	// hostile or foreign file could still carry huge counts; cap them well
	// above anything real before allocating.
	maxSliceLen = 1 << 28
)

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}
func (e *encoder) floats(fs []float64) {
	for _, f := range fs {
		e.float(f)
	}
}
func (e *encoder) ints(vs []int) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.uvarint(uint64(v))
	}
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) count() int {
	v := d.uvarint()
	if v > maxSliceLen {
		d.fail("implausible count")
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) floats(n int) []float64 {
	if d.err != nil || n == 0 {
		return nil
	}
	if len(d.buf) < 8*n {
		d.fail("truncated float slice")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.float()
	}
	return out
}

func (d *decoder) ints() []int {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.uvarint())
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return nil
}

// EncodeBatch serializes a WAL batch. dim is the record dimensionality
// (stored once per batch rather than per insert).
func EncodeBatch(b *Batch, dim int) []byte {
	e := &encoder{buf: make([]byte, 0, 16+len(b.Ops)*(1+8*dim))}
	e.byte(batchVersion)
	e.uvarint(b.Seq)
	e.uvarint(b.Epoch)
	e.uvarint(uint64(dim))
	e.uvarint(uint64(len(b.Ops)))
	for _, op := range b.Ops {
		if op.Kind == engine.UpdateInsert {
			e.byte(opKindInsert)
			e.floats(op.Record)
		} else {
			e.byte(opKindDelete)
			e.uvarint(uint64(op.ID))
		}
	}
	return e.buf
}

// DecodeBatch parses a WAL batch payload.
func DecodeBatch(payload []byte) (*Batch, error) {
	d := &decoder{buf: payload}
	if v := d.byte(); v != batchVersion && d.err == nil {
		return nil, fmt.Errorf("%w: unknown batch version %d", ErrCorrupt, v)
	}
	b := &Batch{Seq: d.uvarint(), Epoch: d.uvarint()}
	dim := d.count()
	n := d.count()
	if d.err != nil {
		return nil, d.err
	}
	b.Ops = make([]engine.UpdateOp, 0, n)
	for i := 0; i < n; i++ {
		switch d.byte() {
		case opKindInsert:
			b.Ops = append(b.Ops, engine.UpdateOp{Kind: engine.UpdateInsert, Record: d.floats(dim)})
		case opKindDelete:
			b.Ops = append(b.Ops, engine.UpdateOp{Kind: engine.UpdateDelete, ID: int(d.uvarint())})
		default:
			if d.err == nil {
				return nil, fmt.Errorf("%w: unknown op kind", ErrCorrupt)
			}
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return b, nil
}

// encodeDynamic writes a band state. The layout predates PR 18 and is frozen:
// the ShadowDepth and Coverage slots (and Rebuilds) are legacy fields of
// skyband.DynamicState, still written and read in place.
func encodeDynamic(e *encoder, st *skyband.DynamicState) {
	e.uvarint(uint64(st.K))
	e.uvarint(uint64(st.ShadowDepth))
	e.uvarint(uint64(st.Coverage))
	e.uvarint(uint64(st.NextID))
	e.ints(st.LiveIDs)
	dim := 0
	if len(st.LiveRecs) > 0 {
		dim = len(st.LiveRecs[0])
	}
	e.uvarint(uint64(dim))
	for _, rec := range st.LiveRecs {
		e.floats(rec)
	}
	e.ints(st.MemberIDs)
	e.ints(st.MemberCounts)
	e.uvarint(st.Inserts)
	e.uvarint(st.Deletes)
	e.uvarint(st.Promotions)
	e.uvarint(st.Demotions)
	e.uvarint(st.Evictions)
	e.uvarint(st.Rebuilds)
}

func decodeDynamic(d *decoder) *skyband.DynamicState {
	st := &skyband.DynamicState{
		K:           int(d.uvarint()),
		ShadowDepth: int(d.uvarint()),
		Coverage:    int(d.uvarint()),
		NextID:      int(d.uvarint()),
		LiveIDs:     d.ints(),
	}
	dim := d.count()
	if d.err != nil {
		return st
	}
	st.LiveRecs = make([][]float64, len(st.LiveIDs))
	for i := range st.LiveRecs {
		st.LiveRecs[i] = d.floats(dim)
		if d.err != nil {
			return st
		}
	}
	st.MemberIDs = d.ints()
	st.MemberCounts = d.ints()
	st.Inserts = d.uvarint()
	st.Deletes = d.uvarint()
	st.Promotions = d.uvarint()
	st.Demotions = d.uvarint()
	st.Evictions = d.uvarint()
	st.Rebuilds = d.uvarint()
	return st
}

func encodeEngineState(e *encoder, st *engine.State) {
	e.uvarint(uint64(st.Dim))
	e.uvarint(st.Epoch)
	e.uvarint(st.Batches)
	encodeDynamic(e, st.Dyn)
}

func decodeEngineState(d *decoder) *engine.State {
	st := &engine.State{
		Dim:     int(d.uvarint()),
		Epoch:   d.uvarint(),
		Batches: d.uvarint(),
	}
	st.Dyn = decodeDynamic(d)
	return st
}

// EncodeSnapshot serializes a snapshot.
func EncodeSnapshot(s *Snapshot) []byte {
	e := &encoder{buf: make([]byte, 0, 4096)}
	e.byte(snapshotVersion)
	e.uvarint(s.Seq)
	e.uvarint(s.Epoch)
	e.uvarint(uint64(s.UnixMilli))
	e.byte(snapKindSingle)
	encodeEngineState(e, s.Engine)
	return e.buf
}

// DecodeSnapshot parses a snapshot payload. A sharded snapshot, written by a
// partitioned engine, is read in its frozen layout — after the routing header
// each part is an engine state whose own epoch and batch slots are ignored
// (the dataset's epoch is the top-level one) — and converted into the one
// band over all its parts' live records (see mergeParts).
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	d := &decoder{buf: payload}
	if v := d.byte(); v != snapshotVersion && d.err == nil {
		return nil, fmt.Errorf("%w: unknown snapshot version %d", ErrCorrupt, v)
	}
	s := &Snapshot{
		Seq:       d.uvarint(),
		Epoch:     d.uvarint(),
		UnixMilli: int64(d.uvarint()),
	}
	switch d.byte() {
	case snapKindSingle:
		s.Engine = decodeEngineState(d)
	case snapKindSharded:
		st := &engine.State{Dim: int(d.uvarint()), Epoch: s.Epoch}
		nextGlobal, nextPart := int(d.uvarint()), int(d.uvarint())
		st.Batches = d.uvarint()
		n := d.count()
		if d.err != nil {
			return nil, d.err
		}
		l2g := make([][]int, n)
		for i := range l2g {
			l2g[i] = d.ints()
		}
		parts := make([]*skyband.DynamicState, n)
		for i := range parts {
			part := decodeEngineState(d)
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
		if st.Dyn, err = mergeParts(st.Dim, nextGlobal, l2g, parts); err != nil {
			return nil, err
		}
		s.Engine = st
	default:
		if d.err == nil {
			return nil, fmt.Errorf("%w: unknown snapshot kind", ErrCorrupt)
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// mergeParts converts a partitioned band's state into the one band over the
// same records: every part's live local ids mapped through its routing table
// (l2g, indexed by local id) to their global ids, sorted, with nextGlobal as
// the id allocator and the lifetime counters summed over the parts. A part's
// member counts are counts within that part, not global ones, so the band is
// recomputed over the merged records. Everything is checked before it is
// used: the bytes passed their CRC but are otherwise untrusted.
func mergeParts(dim, nextGlobal int, l2g [][]int, parts []*skyband.DynamicState) (*skyband.DynamicState, error) {
	if len(parts) == 0 || parts[0].K <= 0 || dim <= 0 {
		return nil, fmt.Errorf("%w: sharded snapshot without parts, band depth or dimensionality", ErrCorrupt)
	}
	st := &skyband.DynamicState{K: parts[0].K, Coverage: parts[0].K, NextID: nextGlobal}
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
	// CountBand lists the band count-major; a state lists it by id.
	idx, counts := skyband.CountBand(st.LiveRecs, st.K)
	count := make([]int, len(st.LiveIDs)) // count+1 per band member, 0 elsewhere
	for i, j := range idx {
		count[j] = counts[i] + 1
	}
	for j, c := range count {
		if c > 0 {
			st.MemberIDs = append(st.MemberIDs, st.LiveIDs[j])
			st.MemberCounts = append(st.MemberCounts, c-1)
		}
	}
	return st, nil
}
