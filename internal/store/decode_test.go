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
	want, counts := countBand(st.LiveIDs, st.LiveRecs, st.K)
	if ids, _, got := d.Band(); !slices.Equal(ids, want) || !slices.Equal(got, counts) {
		t.Fatalf("%s: band %v counts %v, CountBand over the live records %v counts %v", when, ids, got, want, counts)
	}
}

// countBand is skyband.CountBand over live records listed with their ids,
// in Band's order: count-major, ties by id.
func countBand(ids []int, recs [][]float64, k int) (band, counts []int) {
	idx, counts := skyband.CountBand(recs, k)
	band = make([]int, len(idx))
	for i, j := range idx {
		band[i] = ids[j]
	}
	for lo, hi := 0, 0; lo < len(band); lo = hi {
		for hi = lo; hi < len(band) && counts[hi] == counts[lo]; hi++ {
		}
		slices.Sort(band[lo:hi])
	}
	return band, counts
}

// TestDecodeLegacyShadowState decodes a single engine's snapshot written by
// the shadow-banded structure that the one band replaced: shadow depth set,
// coverage eroded to K+1, and the member list carrying shadow members (count
// ≥ K) next to the band. It must come back as today's state — the live
// records and the counters it logged — restore to the exact band, and take
// updates; a state breaking one of its writer's invariants is refused.
func TestDecodeLegacyShadowState(t *testing.T) {
	const k, shadow = 3, 4
	// A twin at depth k+shadow knows the legacy member counts.
	twin, err := skyband.NewDynamic(dataset.Synthetic(dataset.IND, 200, 3, 5), k+shadow)
	if err != nil {
		t.Fatal(err)
	}
	st := legacytest.FromState(twin.State())
	legacy := func() *legacytest.Shadow {
		return &legacytest.Shadow{Dim: 3, ShadowDepth: shadow, Coverage: k + 1, Rebuilds: 9, State: &legacytest.Band{
			DynamicState: skyband.DynamicState{
				K: k, NextID: st.NextID,
				LiveIDs: st.LiveIDs, LiveRecs: st.LiveRecs,
				Inserts: 7, Deletes: 5, Promotions: 3, Demotions: 2, Evictions: 1,
			},
			MemberIDs: slices.Clone(st.MemberIDs), MemberCounts: slices.Clone(st.MemberCounts),
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
	id, _ := d.Insert([]float64{2, 2, 2})
	if _, _, ok := d.Delete(id); !ok {
		t.Fatal("restored structure refused an update")
	}
	checkCountBand(t, d, "restored legacy state after updates")

	band := func(l *legacytest.Shadow) int {
		return slices.IndexFunc(l.State.MemberCounts, func(c int) bool { return c < k })
	}
	for name, bad := range map[string]func(*legacytest.Shadow){
		"coverage below K":       func(l *legacytest.Shadow) { l.Coverage = k - 1 },
		"coverage above K+depth": func(l *legacytest.Shadow) { l.Coverage = k + shadow + 1 },
		"count beyond retention": func(l *legacytest.Shadow) { l.State.MemberCounts[0] = k + shadow },
		"member not live":        func(l *legacytest.Shadow) { l.State.MemberIDs[0] = l.State.NextID + 1 },
		"shadow member not live": func(l *legacytest.Shadow) {
			l.State.MemberIDs[slices.IndexFunc(l.State.MemberCounts, func(c int) bool { return c >= k })] = l.State.NextID + 1
		},
		"negative count":           func(l *legacytest.Shadow) { l.State.MemberCounts[band(l)] = -1 },
		"band member listed twice": func(l *legacytest.Shadow) { l.State.MemberIDs[band(l)+1] = l.State.MemberIDs[band(l)] },
		"members without counts":   func(l *legacytest.Shadow) { l.State.MemberCounts = l.State.MemberCounts[1:] },
	} {
		l := legacy()
		bad(l)
		if _, err := DecodeSnapshot(l.Encode(4, 9, 2)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDecodeV1IgnoresStoredCounts opens a CRC-valid v1 snapshot whose band
// lists a member with a wrong count — 1 where the member has no dominator —
// through a file store. The count is never read into the band: the restored
// engine serves the ids and counts CountBand gives over the live records.
func TestDecodeV1IgnoresStoredCounts(t *testing.T) {
	const k = 4
	recs := dataset.Synthetic(dataset.ANTI, 300, 3, 12)
	dyn, err := skyband.NewDynamic(recs, k)
	if err != nil {
		t.Fatal(err)
	}
	b := legacytest.FromState(dyn.State())
	i := slices.Index(b.MemberCounts, 0)
	if i < 0 || slices.Index(b.MemberCounts[i+1:], 0) < 0 {
		t.Fatal("the band holds under two undominated members; the test exercises nothing")
	}
	b.MemberCounts[i] = 1
	payload := (&legacytest.Shadow{Dim: 3, State: b, Coverage: k}).Encode(0, 0, 0)

	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CreateDataset(DatasetConfig{Name: "ds", Dim: 3, Config: engine.Config{MaxK: k}}, &Snapshot{Engine: &engine.State{Dim: 3, Dyn: dyn.State()}}); err != nil {
		t.Fatal(err)
	}
	raw := appendFrame([]byte(snapMagic), payload)
	if err := os.WriteFile(filepath.Join(dir, "datasets", "ds", "snapshot.snap"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := st.LoadSnapshot("ds")
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.Restore(snap.Engine, engine.Config{MaxK: k, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, counts := countBand(snap.Engine.Dyn.LiveIDs, snap.Engine.Dyn.LiveRecs, k)
	if ids, got := e.Band(); !slices.Equal(ids, want) || !slices.Equal(got, counts) {
		t.Fatalf("served band %v counts %v, CountBand over the live records %v counts %v", ids, got, want, counts)
	}
}

// TestDecodeSnapshotAllocs pins decoding to a constant number of
// allocations whatever the record count: a v2 snapshot of 10 000 records
// decodes its ids into one slice and its records into one slab.
func TestDecodeSnapshotAllocs(t *testing.T) {
	dyn, err := skyband.NewDynamic(dataset.Synthetic(dataset.IND, 10_000, 4, 3), 5)
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeSnapshot(&Snapshot{Seq: 2, Epoch: 3, Engine: &engine.State{Dim: 4, Epoch: 3, Batches: 2, Dyn: dyn.State()}})
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecodeSnapshot(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("decoding a 10 000-record snapshot took %v allocations, want at most 6", allocs)
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
		// A v2 engine at dim 3, K 2, allocator 0, then 2²⁸ live ids.
		{"snapshot live ids", append([]byte{snapshotV2, 0, 0, 0, 3, 0, 0, 2, 0}, huge...), snapshot},
		// A v2 engine at dim 2²⁰ with two live ids, whose records would take
		// 2²⁴ bytes.
		{"snapshot records", append(append([]byte{snapshotV2, 0, 0, 0}, binary.AppendUvarint(nil, 1<<20)...), 0, 0, 2, 3, 2, 0, 1), snapshot},
		// A v1 single engine at dim 3, K 2, shadow 0, coverage 2, allocator
		// 0, then 2²⁸ live ids.
		{"v1 snapshot live ids", append([]byte{snapshotV1, 0, 0, 0, snapKindSingle, 3, 0, 0, 2, 0, 2, 0}, huge...), snapshot},
		// A partitioned engine at dim 3, then 2²⁸ parts.
		{"sharded parts", append([]byte{snapshotV1, 0, 0, 0, snapKindSharded, 3, 0, 0, 0}, huge...), snapshot},
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
	f.Add((&legacytest.Shadow{Dim: 3, State: legacytest.FromState(dyn.State()), Coverage: 4}).Encode(3, 5, 3))
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
