package store

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/skyband"
	"repro/internal/store/legacytest"
)

// checkCountBand compares a restored band, members and exact counts in
// Band's order, with skyband.CountBand over the structure's live records.
func checkCountBand(t *testing.T, d *skyband.Dynamic, when string) {
	t.Helper()
	st := d.State()
	idx, counts := skyband.CountBand(st.LiveRecs, st.K)
	want := make([]int, len(idx))
	for i, j := range idx {
		want[i] = st.LiveIDs[j]
	}
	if ids, _, got := d.Band(); !slices.Equal(ids, want) || !slices.Equal(got, counts) {
		t.Fatalf("%s: band %v counts %v, CountBand over the live records %v counts %v", when, ids, got, want, counts)
	}
}

// TestDecodeLegacyShadowState decodes a single engine's snapshot written by
// the shadow-banded structure that the one band replaced: shadow depth set,
// coverage eroded to K+1, and the member list carrying shadow members (count
// ≥ K) next to the band. It must come back as today's state — the exact band
// and the counters it logged — restore with a fence rebuilt from it, and
// take updates; a state breaking one of its writer's invariants is refused.
func TestDecodeLegacyShadowState(t *testing.T) {
	const k, shadow = 3, 4
	// A twin at depth k+shadow knows the legacy member counts.
	twin, err := skyband.NewDynamic(dataset.Synthetic(dataset.IND, 200, 3, 5), k+shadow)
	if err != nil {
		t.Fatal(err)
	}
	st := twin.State()
	legacy := func() *legacytest.Shadow {
		return &legacytest.Shadow{Dim: 3, ShadowDepth: shadow, Coverage: k + 1, Rebuilds: 9, State: &skyband.DynamicState{
			K: k, NextID: st.NextID,
			LiveIDs: st.LiveIDs, LiveRecs: st.LiveRecs,
			MemberIDs: slices.Clone(st.MemberIDs), MemberCounts: slices.Clone(st.MemberCounts),
			Inserts: 7, Deletes: 5, Promotions: 3, Demotions: 2, Evictions: 1,
		}}
	}
	if !slices.ContainsFunc(st.MemberCounts, func(c int) bool { return c >= k }) {
		t.Fatal("legacy state carries no shadow member; the test exercises nothing")
	}
	// restore decodes and restores the band as a reopen does.
	restore := func(l *legacytest.Shadow) (*skyband.Dynamic, error) {
		snap, err := DecodeSnapshot(l.Encode(4, 9, 2))
		if err != nil {
			return nil, err
		}
		if slices.ContainsFunc(snap.Engine.Dyn.MemberCounts, func(c int) bool { return c >= k }) {
			t.Fatalf("decoded state keeps shadow members: counts %v", snap.Engine.Dyn.MemberCounts)
		}
		return skyband.RestoreDynamic(snap.Engine.Dyn)
	}
	d, err := restore(legacy())
	if err != nil {
		t.Fatal(err)
	}
	checkCountBand(t, d, "restored legacy state")
	if got := d.Stats(); got.Inserts != 7 || got.Deletes != 5 || got.Promotions != 3 || got.Demotions != 2 || got.ShadowEvictions != 1 || got.Rebuilds != 0 {
		t.Fatalf("restored counters %+v", got)
	}
	if out := d.State(); slices.ContainsFunc(out.MemberCounts, func(c int) bool { return c >= k }) {
		t.Fatalf("re-exported state keeps shadow counts %v", out.MemberCounts)
	}
	id, _ := d.Insert([]float64{2, 2, 2})
	if _, _, ok := d.Delete(id); !ok {
		t.Fatal("restored structure refused an update")
	}
	checkCountBand(t, d, "restored legacy state after updates")

	for name, bad := range map[string]func(*legacytest.Shadow){
		"coverage below K":       func(l *legacytest.Shadow) { l.Coverage = k - 1 },
		"coverage above K+depth": func(l *legacytest.Shadow) { l.Coverage = k + shadow + 1 },
		"count beyond retention": func(l *legacytest.Shadow) { l.State.MemberCounts[0] = k + shadow },
		"member not live":        func(l *legacytest.Shadow) { l.State.MemberIDs[0] = l.State.NextID + 1 },
		"shadow member not live": func(l *legacytest.Shadow) {
			l.State.MemberIDs[slices.IndexFunc(l.State.MemberCounts, func(c int) bool { return c >= k })] = l.State.NextID + 1
		},
	} {
		l := legacy()
		bad(l)
		if _, err := restore(l); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeBoundsAllocation feeds the decoders payloads whose counts claim
// far more items than bytes follow them. A frame's CRC proves only that its
// bytes were framed, so each must be refused as corrupt before a count sizes
// an allocation.
func TestDecodeBoundsAllocation(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<28)
	batch := func(p []byte) error { _, err := DecodeBatch(p); return err }
	snapshot := func(p []byte) error { _, err := DecodeSnapshot(p); return err }
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		// v2, seq 1, epoch 0, dim 3, then 2²⁸ ops.
		{"batch ops", append([]byte{BatchV2, 1, 0, 3}, huge...), batch},
		// A single engine at dim 3, K 2, shadow 0, coverage 2, allocator 0,
		// then 2²⁸ live ids.
		{"snapshot live ids", append([]byte{snapshotVersion, 0, 0, 0, snapKindSingle, 3, 0, 0, 2, 0, 2, 0}, huge...), snapshot},
		// A partitioned engine at dim 3, then 2²⁸ parts.
		{"sharded parts", append([]byte{snapshotVersion, 0, 0, 0, snapKindSharded, 3, 0, 0, 0}, huge...), snapshot},
	} {
		var err error
		checkAlloc(t, len(tc.payload), func() { err = tc.decode(tc.payload) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// checkAlloc fails t when decode allocates more than 1 MiB plus 64 bytes per
// payload byte.
func checkAlloc(t testing.TB, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, most := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*n); got > most {
		t.Fatalf("decoding %d bytes allocated %d bytes, over %d", n, got, most)
	}
}

// fixturePayloads returns the frame payloads of the partitioned engine's
// directory pinned in the registry's testdata: its snapshot and its WAL
// frames.
func fixturePayloads(t testing.TB) (snap []byte, batches [][]byte) {
	t.Helper()
	dir := filepath.Join("..", "registry", "testdata", "sharded_v1", "datasets", "fx")
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, _, ok := readFrame(raw[len(snapMagic):])
	if !ok {
		t.Fatal("fixture snapshot frame unreadable")
	}
	raw, err = os.ReadFile(filepath.Join(dir, "wal-00000000000000000003.log"))
	if err != nil {
		t.Fatal(err)
	}
	for body := raw[len(walMagic):]; len(body) > 0; {
		payload, rest, ok := readFrame(body)
		if !ok {
			t.Fatal("fixture WAL frame unreadable")
		}
		batches, body = append(batches, payload), rest
	}
	return snap, batches
}

// FuzzDecodeBatch feeds WAL batch payloads to DecodeBatch: it must not panic
// or allocate past checkAlloc's bound, and a batch it accepts must re-encode
// to a payload that decodes to the same batch.
func FuzzDecodeBatch(f *testing.F) {
	_, frames := fixturePayloads(f)
	for _, p := range frames {
		f.Add(p)
	}
	v1 := testBatch(3)
	v1.Version = BatchV1
	f.Add(EncodeBatch(v1, 3))
	f.Add(EncodeBatch(testBatch(4), 3))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var b *Batch
		var err error
		checkAlloc(t, len(payload), func() { b, err = DecodeBatch(payload) })
		if err != nil {
			return
		}
		dim := 0
		if i := slices.IndexFunc(b.Ops, func(op engine.UpdateOp) bool { return op.Kind == engine.UpdateInsert }); i >= 0 {
			dim = len(b.Ops[i].Record)
		}
		again, err := DecodeBatch(EncodeBatch(b, dim))
		if err != nil {
			t.Fatalf("re-encoded batch refused: %v", err)
		}
		sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		same := again.Version == b.Version && again.Seq == b.Seq && again.Epoch == b.Epoch &&
			slices.EqualFunc(again.Ops, b.Ops, func(x, y engine.UpdateOp) bool {
				return x.Kind == y.Kind && x.ID == y.ID && slices.EqualFunc(x.Record, y.Record, sameBits)
			})
		if !same {
			t.Fatalf("re-encoded batch decodes to %+v, want %+v", again, b)
		}
	})
}

// FuzzDecodeSnapshot feeds snapshot payloads to DecodeSnapshot: it must not
// panic or allocate past checkAlloc's bound, and a snapshot it accepts must
// restore to an engine or be refused with an error, never panic.
func FuzzDecodeSnapshot(f *testing.F) {
	snap, _ := fixturePayloads(f)
	f.Add(snap)
	dyn, err := skyband.NewDynamic(dataset.Synthetic(dataset.IND, 40, 3, 7), 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeSnapshot(&Snapshot{Seq: 3, Epoch: 5, Engine: &engine.State{Dim: 3, Epoch: 5, Batches: 3, Dyn: dyn.State()}}))
	f.Add(EncodeSnapshot(testSnapshot(7, 11)))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var s *Snapshot
		var err error
		checkAlloc(t, len(payload), func() { s, err = DecodeSnapshot(payload) })
		if err != nil {
			return
		}
		// A registry restores at the depth its manifest names; past 64, the
		// mismatch is refused before a deep band's levels are allocated.
		cfg := engine.Config{MaxK: 64, CacheEntries: -1}
		if k := s.Engine.Dyn.K; k > 0 && k < cfg.MaxK {
			cfg.MaxK = k
		}
		engine.Restore(s.Engine, cfg)
	})
}
