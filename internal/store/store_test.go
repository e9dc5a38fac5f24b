package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/skyband"
	"repro/internal/store/legacytest"
)

func testEngineState(epoch uint64) *engine.State {
	return &engine.State{
		Dim:     3,
		Epoch:   epoch,
		Batches: epoch,
		Dyn: &skyband.DynamicState{
			K:        2,
			NextID:   3,
			LiveIDs:  []int{2, 1, 0},
			LiveRecs: [][]float64{{0.7, 0.8, 0.9}, {0.4, 0.5, 0.6}, {0.1, 0.2, 0.3}},
			Inserts:  3,
		},
	}
}

func testSnapshot(seq, epoch uint64) *Snapshot {
	return &Snapshot{Seq: seq, Epoch: epoch, UnixMilli: 1700000000000, Engine: testEngineState(epoch)}
}

func testBatch(seq uint64) *Batch {
	// Vary the shape with the sequence so frames have different lengths.
	ops := []engine.UpdateOp{
		{Kind: engine.UpdateInsert, Record: []float64{float64(seq), 0.5, 0.25}},
		{Kind: engine.UpdateDelete, ID: int(seq % 7)},
	}
	if seq%3 == 0 {
		ops = append(ops, engine.UpdateOp{Kind: engine.UpdateInsert, Record: []float64{0.1, float64(seq) / 100, 0.9}})
	}
	return &Batch{Seq: seq, Epoch: seq * 2, Ops: ops}
}

func batchEq(a, b *Batch) bool {
	if a.Seq != b.Seq || a.Epoch != b.Epoch || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Kind != y.Kind || x.ID != y.ID || !reflect.DeepEqual(x.Record, y.Record) {
			return false
		}
	}
	return true
}

// lastSeq reads an open dataset's append cursor: the last durably framed
// batch.
func lastSeq(t *testing.T, st *File, name string) uint64 {
	t.Helper()
	ds, err := st.dataset(name)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.mu.Unlock()
	return ds.last
}

// collect replays the batches after afterSeq. testBatch logs epoch 2·seq,
// so the stand-in engine starts at the epoch batch afterSeq+1 applies on and
// moves two epochs per batch.
func collect(t *testing.T, st Store, name string, afterSeq uint64) []*Batch {
	t.Helper()
	var out []*Batch
	if _, err := st.Replay(name, afterSeq, 2*(afterSeq+1), func(b *Batch, _ int64) (uint64, error) {
		out = append(out, b)
		return b.Epoch + 2, nil
	}); err != nil {
		t.Fatalf("replay after %d: %v", afterSeq, err)
	}
	return out
}

func TestBatchCodecRoundtrip(t *testing.T) {
	for seq := uint64(1); seq <= 12; seq++ {
		b := testBatch(seq)
		got, err := DecodeBatch(EncodeBatch(b, 3))
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if !batchEq(b, got) {
			t.Fatalf("seq %d: roundtrip mismatch:\n got %+v\nwant %+v", seq, got, b)
		}
	}
	// Empty batch (no ops) must roundtrip too.
	b := &Batch{Seq: 5, Epoch: 9}
	got, err := DecodeBatch(EncodeBatch(b, 0))
	if err != nil || !batchEq(b, got) {
		t.Fatalf("empty batch roundtrip: %+v, %v", got, err)
	}
}

// TestFileBatchVersions pins both frame versions through a file store: a
// batch appended as v1 or v2 (the default) replays with its version, its
// epoch and ops, and the byte length Append reported for its frame; a v3
// frame is refused. The stand-in engine moves two epochs per batch, which a
// v1 frame logs after its batch and a v2 frame before it.
func TestFileBatchVersions(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	var want []*Batch
	var sizes []int64
	for seq, v := range []int{BatchV1, 0, BatchV2, BatchV1} {
		b := testBatch(uint64(seq + 1))
		b.Version = v
		if v != BatchV1 {
			b.Epoch -= 2
		}
		n, err := st.Append("ds", b)
		if err != nil {
			t.Fatal(err)
		}
		if v == 0 {
			b.Version = BatchV2
		}
		want, sizes = append(want, b), append(sizes, n)
	}
	i := 0
	if _, err := st.Replay("ds", 0, 0, func(b *Batch, size int64) (uint64, error) {
		if i >= len(want) || b.Version != want[i].Version || !batchEq(b, want[i]) || size != sizes[i] {
			return 0, fmt.Errorf("replayed batch %d: version %d, %d bytes, %+v; want version %d, %d bytes", i, b.Version, size, b, want[i].Version, sizes[i])
		}
		i++
		return 2 * b.Seq, nil
	}); err != nil || i != len(want) {
		t.Fatalf("replayed %d of %d batches: %v", i, len(want), err)
	}
	bad := EncodeBatch(&Batch{Version: 3, Seq: 1}, 3)
	if _, err := DecodeBatch(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a v3 frame decoded: %v", err)
	}
}

func TestBatchCodecRejectsCorrupt(t *testing.T) {
	payload := EncodeBatch(testBatch(3), 3)
	for _, cut := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
		if _, err := DecodeBatch(payload[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated payload at %d accepted: %v", cut, err)
		}
	}
	long := append(append([]byte(nil), payload...), 0xFF)
	if _, err := DecodeBatch(long); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing garbage accepted: %v", err)
	}
}

func TestSnapshotCodecRoundtrip(t *testing.T) {
	single := testSnapshot(7, 11)
	got, err := DecodeSnapshot(EncodeSnapshot(single))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, got) {
		t.Fatalf("single roundtrip mismatch:\n got %+v\nwant %+v", got, single)
	}
}

// partitioned splits recs round-robin over the given number of parts, as a
// partitioned engine placed them, with one dynamic band of depth k per part.
func partitioned(t *testing.T, recs [][]float64, parts, k int) *legacytest.Sharded {
	t.Helper()
	l, err := legacytest.Partition(recs, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// checkOneBand asserts that a converted state is a live set the one band
// restores over: ids sorted, aligned with the records and below the
// allocator, and a restore whose band is CountBand's over the records.
func checkOneBand(t *testing.T, st *skyband.DynamicState) {
	t.Helper()
	if !slices.IsSorted(st.LiveIDs) || len(st.LiveIDs) != len(st.LiveRecs) {
		t.Fatalf("live ids not sorted or misaligned: %d ids, %d records", len(st.LiveIDs), len(st.LiveRecs))
	}
	if n := len(st.LiveIDs); n > 0 && st.LiveIDs[n-1] >= st.NextID {
		t.Fatalf("live id %d at or past the allocator %d", st.LiveIDs[n-1], st.NextID)
	}
	d, err := skyband.RestoreDynamic(st)
	if err != nil {
		t.Fatalf("converted state does not restore: %v", err)
	}
	checkCountBand(t, d, "converted state")
}

// TestDecodeLegacySharded converts partitioned snapshots into the one band:
// a round-robin split of three distributions, churned so parts hold deleted
// ids, decodes to the parts' live records under their global ids, the
// global allocator and summed counters, a state that restores to the band
// CountBand gives over those records.
func TestDecodeLegacySharded(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.IND, dataset.COR, dataset.ANTI} {
		recs := dataset.Synthetic(kind, 300, 3, 17)
		l := partitioned(t, recs, 3, 5)
		// Delete every fifth record from its part (local id g/3 on part g%3).
		var live []int
		for g := range recs {
			if g%5 == 0 {
				dyn, err := skyband.RestoreDynamic(&l.Parts[g%3].DynamicState)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, ok := dyn.Delete(g / 3); !ok {
					t.Fatalf("delete %d", g)
				}
				l.Parts[g%3] = legacytest.FromState(dyn.State())
				continue
			}
			live = append(live, g)
		}
		snap, err := DecodeSnapshot(l.Encode(9, 14, 5))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		st := snap.Engine
		if snap.Seq != 9 || snap.Epoch != 14 || st.Epoch != 14 || st.Batches != 5 || st.Dim != 3 {
			t.Fatalf("%v: header seq %d epoch %d/%d batches %d dim %d", kind, snap.Seq, snap.Epoch, st.Epoch, st.Batches, st.Dim)
		}
		if !slices.Equal(st.Dyn.LiveIDs, live) || st.Dyn.NextID != len(recs) || st.Dyn.K != 5 {
			t.Fatalf("%v: live ids %v next %d k %d, want %v next %d k 5", kind, st.Dyn.LiveIDs, st.Dyn.NextID, st.Dyn.K, live, len(recs))
		}
		for i, g := range live {
			if !slices.Equal(st.Dyn.LiveRecs[i], recs[g]) {
				t.Fatalf("%v: record of id %d differs", kind, g)
			}
		}
		var deletes uint64
		for _, part := range l.Parts {
			deletes += part.Deletes
		}
		if deletes != uint64(len(recs)-len(live)) || st.Dyn.Deletes != deletes {
			t.Fatalf("%v: summed deletes %d, parts %d, want %d", kind, st.Dyn.Deletes, deletes, len(recs)-len(live))
		}
		checkOneBand(t, st.Dyn)
	}
}

// TestDecodeLegacyShardedFixture decodes the partitioned engine's snapshot
// pinned in the registry's sharded_v1 directory (bytes written by that
// engine, never regenerated) into the one band over its live records.
func TestDecodeLegacyShardedFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "registry", "testdata", "sharded_v1", "datasets", "fx", "snapshot.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < len(snapMagic)+frameHeaderLen || string(raw[:len(snapMagic)]) != snapMagic {
		t.Fatal("fixture snapshot lacks its header")
	}
	snap, err := DecodeSnapshot(raw[len(snapMagic)+frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	st := snap.Engine
	if st.Dim != 3 || st.Dyn.K != 6 || st.Epoch != snap.Epoch || len(st.Dyn.LiveIDs) == 0 {
		t.Fatalf("fixture decoded to dim %d k %d epoch %d/%d with %d live records", st.Dim, st.Dyn.K, st.Epoch, snap.Epoch, len(st.Dyn.LiveIDs))
	}
	checkOneBand(t, st.Dyn)
}

// TestDecodeLegacyShardedRejectsCorrupt hand-corrupts a valid partitioned
// snapshot in each way its routing can be inconsistent: every one must be
// refused as ErrCorrupt, without a panic.
func TestDecodeLegacyShardedRejectsCorrupt(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 12, 3, 3)
	for _, tc := range []struct {
		name    string
		corrupt func(l *legacytest.Sharded)
	}{
		{"short routing table", func(l *legacytest.Sharded) { l.L2G[1] = l.L2G[1][:2] }},
		{"live id past its routing table", func(l *legacytest.Sharded) {
			l.Parts[0].LiveIDs = slices.Clone(l.Parts[0].LiveIDs)
			l.Parts[0].LiveIDs[3] = len(l.L2G[0])
		}},
		{"negative live id", func(l *legacytest.Sharded) {
			l.Parts[0].LiveIDs = slices.Clone(l.Parts[0].LiveIDs)
			l.Parts[0].LiveIDs[0] = -1
		}},
		{"global id past the allocator", func(l *legacytest.Sharded) { l.L2G[1][0] = l.NextGlobal }},
		{"global id owned by two parts", func(l *legacytest.Sharded) { l.L2G[1][2] = l.L2G[0][2] }},
		{"parts disagree on K", func(l *legacytest.Sharded) { l.Parts[1].K = 3 }},
		{"no parts", func(l *legacytest.Sharded) { l.L2G, l.Parts = nil, nil }},
		{"cursor out of range", func(l *legacytest.Sharded) { l.NextPart = len(l.Parts) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := partitioned(t, recs, 3, 2)
			if _, err := DecodeSnapshot(l.Encode(1, 1, 1)); err != nil {
				t.Fatalf("valid input refused: %v", err)
			}
			tc.corrupt(l)
			if _, err := DecodeSnapshot(l.Encode(1, 1, 1)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestReplayEpochRule pins the epoch rule Replay applies, one log shape a
// row, each with its epochs right and one epoch off by one. Every frame is a
// batch that moves the stand-in engine's epoch by step and logs the epoch
// logged: a v2 frame the engine's before the batch, a v1 frame the one after
// it, which a partitioned engine's log (shards 3) may run ahead of. served is
// the epoch recovery serves at, 0 for a log Replay refuses.
func TestReplayEpochRule(t *testing.T) {
	type frame struct {
		version      int
		logged, step uint64
	}
	v1 := func(logged, step uint64) frame { return frame{BatchV1, logged, step} }
	v2 := func(logged, step uint64) frame { return frame{BatchV2, logged, step} }
	for _, tc := range []struct {
		name          string
		shards        int
		start, served uint64
		frames        []frame
	}{
		{"v2 only", 0, 5, 7, []frame{v2(5, 1), v2(6, 0), v2(6, 1)}},
		{"v2 only, one ahead", 0, 5, 0, []frame{v2(5, 1), v2(7, 0)}},
		{"v1 only", 0, 5, 7, []frame{v1(6, 1), v1(6, 0), v1(7, 1)}},
		{"v1 only, one ahead", 0, 5, 0, []frame{v1(6, 1), v1(8, 1)}},
		{"v1 then v2", 0, 5, 7, []frame{v1(6, 1), v2(6, 1), v2(7, 0)}},
		{"v1 then v2, one ahead", 0, 5, 0, []frame{v1(6, 1), v2(7, 1)}},
		{"partitioned v1", 3, 4, 9, []frame{v1(6, 1), v1(7, 0), v1(9, 1)}},
		{"partitioned v1, one behind", 3, 4, 0, []frame{v1(6, 1), v1(5, 1)}},
		{"partitioned v1 then v2", 3, 4, 9, []frame{v1(6, 1), v1(8, 1), v2(8, 1), v2(9, 0)}},
		{"partitioned v1 then v2, one ahead", 3, 4, 0, []frame{v1(6, 1), v1(8, 1), v2(9, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := OpenFile(t.TempDir(), FileConfig{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			cfg := testConfig("ds")
			cfg.Shards = tc.shards
			if err := st.CreateDataset(cfg, testSnapshot(0, tc.start)); err != nil {
				t.Fatal(err)
			}
			for i, f := range tc.frames {
				b := testBatch(uint64(i + 1))
				b.Version, b.Epoch = f.version, f.logged
				if _, err := st.Append("ds", b); err != nil {
					t.Fatal(err)
				}
			}
			epoch := tc.start
			served, err := st.Replay("ds", 0, tc.start, func(b *Batch, _ int64) (uint64, error) {
				epoch += tc.frames[b.Seq-1].step
				return epoch, nil
			})
			switch {
			case tc.served == 0 && !errors.Is(err, ErrCorrupt):
				t.Fatalf("replayed to epoch %d (%v), want the log refused", served, err)
			case tc.served != 0 && (err != nil || served != tc.served):
				t.Fatalf("replayed to epoch %d (%v), want %d", served, err, tc.served)
			}
		})
	}
}

func testConfig(name string) DatasetConfig {
	return DatasetConfig{Name: name, Dim: 3, Config: engine.Config{MaxK: 4}}
}

func TestFileCreateAppendReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), nil); err == nil {
		t.Fatal("create without initial snapshot accepted")
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}

	const n = 9
	for seq := uint64(1); seq <= n; seq++ {
		nb, err := st.Append("ds", testBatch(seq))
		if err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		if nb <= 0 {
			t.Fatalf("append %d reported %d bytes", seq, nb)
		}
	}
	if _, err := st.Append("ds", testBatch(n+5)); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap append: %v", err)
	}
	if last := lastSeq(t, st, "ds"); last != n {
		t.Fatalf("LastSeq = %d, want %d", last, n)
	}
	for _, after := range []uint64{0, 4, n} {
		got := collect(t, st, "ds", after)
		if len(got) != int(n-after) {
			t.Fatalf("replay after %d: %d batches, want %d", after, len(got), n-after)
		}
		for i, b := range got {
			if want := testBatch(after + uint64(i) + 1); !batchEq(b, want) {
				t.Fatalf("replay after %d: batch %d mismatch", after, b.Seq)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open over the same directory sees everything.
	st2, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mf, err := st2.LoadManifest()
	if err != nil || len(mf.Datasets) != 1 || mf.Datasets[0].Name != "ds" {
		t.Fatalf("manifest after reopen: %+v, %v", mf, err)
	}
	snap, err := st2.LoadSnapshot("ds")
	if err != nil || snap.Seq != 0 {
		t.Fatalf("snapshot after reopen: %+v, %v", snap, err)
	}
	if got := collect(t, st2, "ds", 0); len(got) != n {
		t.Fatalf("replay after reopen: %d batches, want %d", len(got), n)
	}
}

// walSegmentPaths lists a dataset's WAL segment files, sorted.
func walSegmentPaths(t *testing.T, dir, name string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "datasets", name, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestFileTornTail hard-cuts the WAL at every byte offset and checks that
// reopening recovers exactly the batches whose frames are complete — the
// torn suffix disappears atomically — and that appending continues from
// there.
func TestFileTornTail(t *testing.T) {
	base := t.TempDir()
	st, err := OpenFile(base, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	const n = 6
	frameEnd := []int64{int64(len(walMagic))} // frameEnd[i] = offset after batch i's frame
	for seq := uint64(1); seq <= n; seq++ {
		nb, err := st.Append("ds", testBatch(seq))
		if err != nil {
			t.Fatal(err)
		}
		frameEnd = append(frameEnd, frameEnd[len(frameEnd)-1]+nb)
	}
	st.Close()

	segs := walSegmentPaths(t, base, "ds")
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one", segs)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != frameEnd[n] {
		t.Fatalf("segment is %d bytes, frames end at %d", len(raw), frameEnd[n])
	}

	for cut := int64(0); cut < int64(len(raw)); cut++ {
		// Expected surviving prefix: every batch whose frame ends at or
		// before the cut.
		want := uint64(0)
		for int(want) < n && frameEnd[want+1] <= cut {
			want++
		}
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "datasets", "ds"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{"manifest.json"} {
			b, err := os.ReadFile(filepath.Join(base, f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		snapRaw, err := os.ReadFile(filepath.Join(base, "datasets", "ds", "snapshot.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "datasets", "ds", "snapshot.snap"), snapRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "datasets", "ds", filepath.Base(segs[0])), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		cur, err := OpenFile(dir, FileConfig{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got := collect(t, cur, "ds", 0)
		if len(got) != int(want) {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, len(got), want)
		}
		if last := lastSeq(t, cur, "ds"); last != want {
			t.Fatalf("cut %d: recovered LastSeq = %d, want %d", cut, last, want)
		}
		for i, b := range got {
			if !batchEq(b, testBatch(uint64(i)+1)) {
				t.Fatalf("cut %d: replayed batch %d mismatch", cut, b.Seq)
			}
		}
		// The log must accept the next batch right where the tail tore.
		if _, err := cur.Append("ds", testBatch(want+1)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if got := collect(t, cur, "ds", 0); len(got) != int(want)+1 {
			t.Fatalf("cut %d: replay after append: %d batches, want %d", cut, len(got), want+1)
		}
		cur.Close()
	}
}

// TestFileCRCCorruption flips a byte inside an interior frame: recovery must
// truncate at the first damaged frame even though later bytes look intact.
func TestFileCRCCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	var frameEnd []int64
	off := int64(len(walMagic))
	for seq := uint64(1); seq <= 5; seq++ {
		nb, err := st.Append("ds", testBatch(seq))
		if err != nil {
			t.Fatal(err)
		}
		off += nb
		frameEnd = append(frameEnd, off)
	}
	st.Close()

	// Flip one payload byte in frame 3 (the frame after frameEnd[1]).
	seg := walSegmentPaths(t, dir, "ds")[0]
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameEnd[1]+frameHeaderLen+2] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := collect(t, st2, "ds", 0)
	if len(got) != 2 || !batchEq(got[0], testBatch(1)) || !batchEq(got[1], testBatch(2)) {
		t.Fatalf("replay after corruption: %d batches", len(got))
	}
	if last := lastSeq(t, st2, "ds"); last != 2 {
		t.Fatalf("LastSeq after corruption = %d, want 2", last)
	}
}

// writeSegment writes a WAL segment by hand, as a build that rolled the log
// by size left it: the header, then one frame per batch in order.
func writeSegment(t *testing.T, dir string, firstSeq uint64, batches ...*Batch) {
	t.Helper()
	w, err := createSegment(dir, firstSeq)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, b := range batches {
		if _, err := w.Write(appendFrame(nil, EncodeBatch(b, 3))); err != nil {
			t.Fatal(err)
		}
	}
}

// checkReplay requires replay after afterSeq to return exactly testBatch(afterSeq+1 … last).
func checkReplay(t *testing.T, st Store, afterSeq, last uint64) {
	t.Helper()
	got := collect(t, st, "ds", afterSeq)
	if len(got) != int(last-afterSeq) {
		t.Fatalf("replay after %d: %d batches, want %d", afterSeq, len(got), last-afterSeq)
	}
	for i, b := range got {
		if !batchEq(b, testBatch(afterSeq+uint64(i)+1)) {
			t.Fatalf("replay after %d: batch %d mismatch", afterSeq, b.Seq)
		}
	}
}

// TestFileLegacySegmentLayout reopens the multi-segment layouts the current
// store no longer writes but must still read: a log an older build rolled by
// size into three segments, and the old-plus-fresh pair a crash in the middle
// of a snapshot's rotation leaves. Replay chains the segments exactly, a
// snapshot behind the log keeps them all, and a snapshot at the head leaves
// exactly one segment that appends continue in.
func TestFileLegacySegmentLayout(t *testing.T) {
	t.Run("rolled", func(t *testing.T) {
		dir := t.TempDir()
		st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
			t.Fatal(err)
		}
		st.Close()
		dsDir := filepath.Join(dir, "datasets", "ds")
		writeSegment(t, dsDir, 1, testBatch(1), testBatch(2), testBatch(3))
		writeSegment(t, dsDir, 4, testBatch(4), testBatch(5), testBatch(6))
		writeSegment(t, dsDir, 7, testBatch(7), testBatch(8), testBatch(9))

		st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		checkReplay(t, st, 0, 9)
		if last := lastSeq(t, st, "ds"); last != 9 {
			t.Fatalf("LastSeq over three segments = %d, want 9", last)
		}

		// A snapshot behind the log keeps every segment.
		if err := st.WriteSnapshot("ds", testSnapshot(5, 10)); err != nil {
			t.Fatal(err)
		}
		if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 3 {
			t.Fatalf("segments after a snapshot behind the log: %v, want three", segs)
		}
		if _, err := st.Append("ds", testBatch(10)); err != nil {
			t.Fatal(err)
		}
		// Replay after the snapshot chains from the segment holding batch 6
		// and removes the one wholly behind it.
		checkReplay(t, st, 5, 10)
		if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 2 || filepath.Base(segs[0]) != fmt.Sprintf("wal-%020d.log", 4) {
			t.Fatalf("segments after replay past the snapshot: %v, want wal-…4.log and wal-…7.log", segs)
		}

		// A snapshot at the head leaves one fresh segment; appends continue.
		if err := st.WriteSnapshot("ds", testSnapshot(10, 20)); err != nil {
			t.Fatal(err)
		}
		segs := walSegmentPaths(t, dir, "ds")
		if len(segs) != 1 || filepath.Base(segs[0]) != fmt.Sprintf("wal-%020d.log", 11) {
			t.Fatalf("segments after a snapshot at the head: %v, want wal-…11.log alone", segs)
		}
		checkReplay(t, st, 10, 10)
		if _, err := st.Append("ds", testBatch(11)); err != nil {
			t.Fatal(err)
		}
		st.Close()

		st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		checkReplay(t, st, 10, 11)
		if last := lastSeq(t, st, "ds"); last != 11 {
			t.Fatalf("LastSeq after restart + append + reopen = %d, want 11", last)
		}
	})

	t.Run("crash-mid-rotation", func(t *testing.T) {
		// The snapshot at 4 was written and its fresh segment created, but
		// the old segment was not removed yet.
		dir := t.TempDir()
		st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CreateDataset(testConfig("ds"), testSnapshot(4, 8)); err != nil {
			t.Fatal(err)
		}
		st.Close()
		writeSegment(t, filepath.Join(dir, "datasets", "ds"), 1, testBatch(1), testBatch(2), testBatch(3), testBatch(4))

		st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		checkReplay(t, st, 0, 4)
		if last := lastSeq(t, st, "ds"); last != 4 {
			t.Fatalf("LastSeq over old + fresh segment = %d, want 4", last)
		}
		if _, err := st.Append("ds", testBatch(5)); err != nil {
			t.Fatal(err)
		}
		checkReplay(t, st, 0, 5)
		if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 2 {
			t.Fatalf("segments before the next snapshot: %v, want two", segs)
		}
		// Replay after the snapshot at 4 starts at the fresh segment and
		// removes the old one, which ends at 4.
		checkReplay(t, st, 4, 5)
		if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 1 {
			t.Fatalf("segments after replay past the snapshot: %v, want one", segs)
		}
		if err := st.WriteSnapshot("ds", testSnapshot(5, 10)); err != nil {
			t.Fatal(err)
		}
		if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 1 {
			t.Fatalf("segments after a snapshot at the head: %v, want one", segs)
		}
		if _, err := st.Append("ds", testBatch(6)); err != nil {
			t.Fatal(err)
		}
		st.Close()

		st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		checkReplay(t, st, 5, 6)
		if last := lastSeq(t, st, "ds"); last != 6 {
			t.Fatalf("LastSeq after reopen = %d, want 6", last)
		}
	})
}

// TestFileFailedAppendNotReplayed pins the heal path after an append whose
// frame reached the segment but was never acknowledged (its Sync failed, so
// LastSeq did not move). The heal snapshot at LastSeq restarts the log, so
// the frame cannot be replayed in place of the next acknowledged batch,
// which is logged under the same seq.
func TestFileFailedAppendNotReplayed(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	ds, err := st.dataset("ds")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ds.w.Write(appendFrame(nil, EncodeBatch(testBatch(1), 3)))
	ds.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if last := lastSeq(t, st, "ds"); last != 0 {
		t.Fatalf("LastSeq after an unacknowledged frame = %d, want 0", last)
	}
	if err := st.WriteSnapshot("ds", testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 1 {
		t.Fatalf("segments after the heal snapshot: %v, want one", segs)
	}
	acked := testBatch(1)
	acked.Epoch = 99
	if _, err := st.Append("ds", acked); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The stand-in engine is at the acknowledged batch's epoch: replaying the
	// orphan (epoch 2) in its place fails the epoch check.
	var got []*Batch
	_, err = st.Replay("ds", 0, acked.Epoch, func(b *Batch, _ int64) (uint64, error) {
		got = append(got, b)
		return b.Epoch, nil
	})
	if err != nil || len(got) != 1 || !batchEq(got[0], acked) {
		epochs := make([]uint64, len(got))
		for i, b := range got {
			epochs[i] = b.Epoch
		}
		t.Fatalf("replay returned epochs %v (%v), want only the acknowledged batch (epoch 99)", epochs, err)
	}
}

// TestFileAppendAfterCutFrame pins where an append lands after a failed one
// cut its frame back off: right after the last acknowledged frame, in the
// segment CreateDataset staged and in the one a snapshot restarted the log
// in. A handle that writes at its own offset instead of the end would leave
// a hole there, and replay would stop at it.
func TestFileAppendAfterCutFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	cutFrame := func(seq uint64) {
		t.Helper()
		ds, err := st.dataset("ds")
		if err != nil {
			t.Fatal(err)
		}
		_, err = ds.w.Write(appendFrame(nil, EncodeBatch(testBatch(seq), 3)))
		if err == nil {
			err = ds.w.Truncate(ds.wLen) // what Append does when its write or fsync fails
		}
		ds.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	cutFrame(1)
	if _, err := st.Append("ds", testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot("ds", testSnapshot(1, 2)); err != nil {
		t.Fatal(err)
	}
	cutFrame(2)
	if _, err := st.Append("ds", testBatch(2)); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, st, 1, 2)
}

// TestFileSnapshotAheadOfWAL covers the SyncNever crash mode where fsynced
// snapshot state survives but trailing WAL frames behind it do not: a
// snapshot written past the log's tail re-bases the append cursor.
func TestFileSnapshotAheadOfWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := st.Append("ds", testBatch(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// The engine is at seq 7 (say), the log only at 3: checkpointing re-bases.
	if err := st.WriteSnapshot("ds", testSnapshot(7, 14)); err != nil {
		t.Fatal(err)
	}
	if last := lastSeq(t, st, "ds"); last != 7 {
		t.Fatalf("LastSeq after ahead snapshot = %d, want 7", last)
	}
	if _, err := st.Append("ds", testBatch(8)); err != nil {
		t.Fatalf("append after re-base: %v", err)
	}
	st.Close()

	st2, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := collect(t, st2, "ds", 7)
	if len(got) != 1 || !batchEq(got[0], testBatch(8)) {
		t.Fatalf("replay after re-base: %d batches", len(got))
	}
	if last := lastSeq(t, st2, "ds"); last != 8 {
		t.Fatalf("LastSeq after reopen = %d, want 8", last)
	}
}

// TestFileReplayOpensDataset pins the open contract: a dataset the manifest
// lists is not open in a fresh process until Replay opens it, so Append and
// WriteSnapshot refuse it; Replay reads the disk each time, so a second one
// returns the same batches, and appends continue after them.
func TestFileReplayOpensDataset(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := st.Append("ds", testBatch(seq)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append("ds", testBatch(4)); err == nil {
		t.Fatal("append to a dataset not replayed in this process accepted")
	}
	if err := st.WriteSnapshot("ds", testSnapshot(3, 6)); err == nil {
		t.Fatal("snapshot of a dataset not replayed in this process accepted")
	}
	if _, err := st.Replay("nope", 0, 0, func(*Batch, int64) (uint64, error) { return 0, nil }); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("replay of an unknown dataset: %v", err)
	}
	checkReplay(t, st, 0, 3)
	checkReplay(t, st, 0, 3)
	if _, err := st.Append("ds", testBatch(4)); err != nil {
		t.Fatalf("append after replay: %v", err)
	}
	checkReplay(t, st, 0, 4)
}

// TestFileReplayRebasesLogBehindSnapshot covers the SyncNever crash that
// loses WAL frames behind an fsynced snapshot: the log ends at 3, the
// snapshot is at 7. Replay after 7 hands over nothing and restarts the log
// after the snapshot, so the next append is 8 and survives a reopen.
func TestFileReplayRebasesLogBehindSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := st.Append("ds", testBatch(seq)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	dsDir := filepath.Join(dir, "datasets", "ds")
	if err := writeSnapshotFile(dsDir, testSnapshot(7, 14)); err != nil {
		t.Fatal(err)
	}

	st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	checkReplay(t, st, 7, 7)
	if last := lastSeq(t, st, "ds"); last != 7 {
		t.Fatalf("LastSeq after replay past the log's end = %d, want 7", last)
	}
	if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 1 || filepath.Base(segs[0]) != fmt.Sprintf("wal-%020d.log", 8) {
		t.Fatalf("segments after the re-base: %v, want wal-…8.log alone", segs)
	}
	if _, err := st.Append("ds", testBatch(8)); err != nil {
		t.Fatalf("append after the re-base: %v", err)
	}
	st.Close()

	st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkReplay(t, st, 7, 8)
}

// TestFileReplaySkipsSegmentBehindSnapshot reopens the directory a re-base
// leaves when it cannot remove the old segment: the snapshot is at 7, wal-1
// holds batches 1–3 and wal-8 the acknowledged batches 8 and 9. Replay after
// 7 starts its chain at wal-8 and returns both batches; chaining from wal-1
// would stop at the seq gap and drop them.
func TestFileReplaySkipsSegmentBehindSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(7, 14)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	dsDir := filepath.Join(dir, "datasets", "ds")
	writeSegment(t, dsDir, 1, testBatch(1), testBatch(2), testBatch(3))
	writeSegment(t, dsDir, 8, testBatch(8), testBatch(9))

	st, err = OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkReplay(t, st, 7, 9)
	if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 1 || filepath.Base(segs[0]) != fmt.Sprintf("wal-%020d.log", 8) {
		t.Fatalf("segments after replay: %v, want wal-…8.log alone", segs)
	}
	if _, err := st.Append("ds", testBatch(10)); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, st, 7, 10)
}

// TestFileManifestAtomicity exercises the create/drop commit points: an
// orphan directory (crash between staging and the manifest write, or between
// a manifest removal and the file sweep) is removed at open; a committed
// dataset survives untouched.
func TestFileManifestAtomicity(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("keep"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("keep", testBatch(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate a crash between staging and manifest commit: a dataset
	// directory with plausible contents but no manifest entry.
	orphan := filepath.Join(dir, "datasets", "orphan")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "snapshot.snap"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan directory survived open")
	}
	mf, _ := st2.LoadManifest()
	if len(mf.Datasets) != 1 || mf.Datasets[0].Name != "keep" {
		t.Fatalf("manifest after sweep: %+v", mf)
	}
	if got := collect(t, st2, "keep", 0); len(got) != 1 {
		t.Fatalf("committed dataset lost batches: %d", len(got))
	}

	// Drop removes the manifest entry and the files; recreate works.
	if err := st2.DropDataset("keep"); err != nil {
		t.Fatal(err)
	}
	if err := st2.DropDataset("keep"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("double drop: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "datasets", "keep")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("dropped dataset directory survived")
	}
	if err := st2.CreateDataset(testConfig("keep"), testSnapshot(0, 0)); err != nil {
		t.Fatalf("recreate after drop: %v", err)
	}
	if last := lastSeq(t, st2, "keep"); last != 0 {
		t.Fatalf("recreated dataset LastSeq = %d, want 0", last)
	}
	st2.Close()
}

func TestFileSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "datasets", "ds", "snapshot.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadSnapshot("ds"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot accepted: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	sp, err := ParseSyncPolicy("never")
	if err != nil || sp != SyncNever {
		t.Fatalf("ParseSyncPolicy(never) = %v, %v", sp, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted junk")
	}
}
