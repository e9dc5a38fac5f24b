package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/skyband"
)

// Binary codec for WAL batches and snapshots. The encoding is versioned,
// little-endian, and self-delimiting: uvarints for counts/ids/counters,
// raw IEEE-754 bits for coordinates. Integrity is enforced one level up by
// the CRC frame around each encoded payload, so the codec itself only
// defends against structural nonsense: truncated payloads, and counts larger
// than the bytes left could hold, refused before they size an allocation.

const (
	// Snapshot payload versions: v2 is written (see EncodeSnapshot); v1,
	// which older builds wrote, is read (see decodeV1).
	snapshotV1 = 1
	snapshotV2 = 2

	opKindInsert = 1
	opKindDelete = 2

	// maxDim caps a decoded dimensionality, which sizes nothing until
	// records follow it.
	maxDim = 1 << 28
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

// count reads a count no larger than most. A frame passed its CRC, but a
// hostile or foreign file could still carry absurd counts: a count of
// encoded items is bounded by the bytes left (most = bytes left / the
// fewest bytes an item takes) before it sizes an allocation.
func (d *decoder) count(most int) int {
	if v := d.uvarint(); v <= uint64(most) {
		return int(v)
	}
	d.fail("implausible count")
	return 0
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

// records reads n records of dim coordinates each into one slab. n·dim is
// bounded by the bytes left (by division, so the product cannot overflow)
// before it sizes the slab.
func (d *decoder) records(n, dim int) [][]float64 {
	if dim > 0 && n > len(d.buf)/8/dim {
		d.fail("truncated records")
		return nil
	}
	slab, recs := d.floats(n*dim), make([][]float64, n)
	for i := range recs {
		recs[i] = slab[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return recs
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
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:]))
	}
	d.buf = d.buf[8*n:]
	return out
}

func (d *decoder) ints() []int {
	n := d.count(len(d.buf)) // a uvarint takes at least a byte
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
	v := b.Version
	if v == 0 {
		v = BatchV2
	}
	e.byte(byte(v))
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
	v := d.byte()
	if v != BatchV1 && v != BatchV2 && d.err == nil {
		return nil, fmt.Errorf("%w: unknown batch version %d", ErrCorrupt, v)
	}
	b := &Batch{Version: int(v), Seq: d.uvarint(), Epoch: d.uvarint()}
	dim := d.count(maxDim)
	// An op is a kind byte and a delete's id or an insert's dim coordinates.
	n := d.count(len(d.buf) / min(2, 1+8*dim))
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

// encodeEngineState writes an engine state in the v2 layout: the
// dimensionality, epoch and batch count, then the band state — its depth,
// its id allocator, the live ids in the state's order, their records (dim
// coordinates each) and the five lifetime counters. No band is written: a
// restore builds it from the records.
func encodeEngineState(e *encoder, st *engine.State) {
	dyn := st.Dyn
	e.uvarint(uint64(st.Dim))
	e.uvarint(st.Epoch)
	e.uvarint(st.Batches)
	e.uvarint(uint64(dyn.K))
	e.uvarint(uint64(dyn.NextID))
	e.ints(dyn.LiveIDs)
	for _, rec := range dyn.LiveRecs {
		e.floats(rec)
	}
	for _, c := range []uint64{dyn.Inserts, dyn.Deletes, dyn.Promotions, dyn.Demotions, dyn.Evictions} {
		e.uvarint(c)
	}
}

func decodeEngineState(d *decoder) *engine.State {
	st := &engine.State{Dim: d.count(maxDim), Epoch: d.uvarint(), Batches: d.uvarint()}
	dyn := &skyband.DynamicState{K: int(d.uvarint()), NextID: int(d.uvarint())}
	dyn.LiveIDs = d.ints()
	dyn.LiveRecs = d.records(len(dyn.LiveIDs), st.Dim)
	dyn.Inserts, dyn.Deletes, dyn.Promotions = d.uvarint(), d.uvarint(), d.uvarint()
	dyn.Demotions, dyn.Evictions = d.uvarint(), d.uvarint()
	st.Dyn = dyn
	return st
}

// EncodeSnapshot serializes a snapshot as a v2 payload: the version byte,
// the header and the engine state (see encodeEngineState).
func EncodeSnapshot(s *Snapshot) []byte {
	n := len(s.Engine.Dyn.LiveIDs)
	e := &encoder{buf: make([]byte, 0, 64+n*(binary.MaxVarintLen64+8*s.Engine.Dim))}
	e.byte(snapshotV2)
	e.uvarint(s.Seq)
	e.uvarint(s.Epoch)
	e.uvarint(uint64(s.UnixMilli))
	encodeEngineState(e, s.Engine)
	return e.buf
}

// DecodeSnapshot parses a snapshot payload into today's engine state,
// whatever wrote it: a v2 payload as it lies, a v1 payload (a single
// engine's or a partitioned engine's) through decodeV1.
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	d := &decoder{buf: payload}
	v := d.byte()
	if v != snapshotV1 && v != snapshotV2 && d.err == nil {
		return nil, fmt.Errorf("%w: unknown snapshot version %d", ErrCorrupt, v)
	}
	s := &Snapshot{
		Seq:       d.uvarint(),
		Epoch:     d.uvarint(),
		UnixMilli: int64(d.uvarint()),
	}
	if v == snapshotV2 {
		s.Engine = decodeEngineState(d)
	} else {
		s.Engine = decodeV1(d, s.Epoch)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}
