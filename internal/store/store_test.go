package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/skyband"
)

func testEngineState(epoch uint64) *engine.State {
	return &engine.State{
		Dim:     3,
		Epoch:   epoch,
		Batches: epoch,
		Dyn: &skyband.DynamicState{
			K:           2,
			ShadowDepth: 1,
			Coverage:    2,
			NextID:      3,
			LiveIDs:     []int{0, 1, 2},
			LiveRecs:    [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}, {0.7, 0.8, 0.9}},
			MemberIDs:   []int{0, 2},
			MemberCounts: []int{
				0, 1,
			},
			Inserts: 3,
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

func collect(t *testing.T, st Store, name string, afterSeq uint64) []*Batch {
	t.Helper()
	var out []*Batch
	if err := st.Replay(name, afterSeq, func(b *Batch) error {
		out = append(out, b)
		return nil
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

	sharded := &Snapshot{
		Seq: 4, Epoch: 6, UnixMilli: 12345,
		Engine: &engine.State{
			Dim: 3, Epoch: 6, Batches: 4,
			Parts: &shard.State{
				NextGlobal:    6,
				NextPart:      1,
				LocalToGlobal: [][]int{{0, 2, 4}, {1, 3, 5}},
				Parts:         []*skyband.DynamicState{testEngineState(2).Dyn, testEngineState(4).Dyn},
			},
		},
	}
	got, err = DecodeSnapshot(EncodeSnapshot(sharded))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded, got) {
		t.Fatalf("sharded roundtrip mismatch:\n got %+v\nwant %+v", got, sharded)
	}
}

func testConfig(name string) DatasetConfig {
	return DatasetConfig{Name: name, Dim: 3, MaxK: 4}
}

func TestFileCreateAppendReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable() {
		t.Fatal("file store reports not durable")
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
	if last, _ := st.LastSeq("ds"); last != n {
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
		last, err := cur.LastSeq("ds")
		if err != nil {
			t.Fatalf("cut %d: LastSeq: %v", cut, err)
		}
		if last != want {
			t.Fatalf("cut %d: recovered LastSeq = %d, want %d", cut, last, want)
		}
		got := collect(t, cur, "ds", 0)
		if len(got) != int(want) {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, len(got), want)
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
	if last, _ := st2.LastSeq("ds"); last != 2 {
		t.Fatalf("LastSeq after corruption = %d, want 2", last)
	}
	got := collect(t, st2, "ds", 0)
	if len(got) != 2 || !batchEq(got[0], testBatch(1)) || !batchEq(got[1], testBatch(2)) {
		t.Fatalf("replay after corruption: %d batches", len(got))
	}
}

// TestFileSegmentRollPrune forces tiny segments, checks multi-segment replay
// and recovery, and verifies snapshots prune covered segments.
func TestFileSegmentRollPrune(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDataset(testConfig("ds"), testSnapshot(0, 0)); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for seq := uint64(1); seq <= n; seq++ {
		if _, err := st.Append("ds", testBatch(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if segs := walSegmentPaths(t, dir, "ds"); len(segs) < 3 {
		t.Fatalf("tiny segments produced only %d files: %v", len(segs), segs)
	}
	if got := collect(t, st, "ds", 0); len(got) != n {
		t.Fatalf("multi-segment replay: %d batches, want %d", len(got), n)
	}
	st.Close()

	// Reopen across segments.
	st2, err := OpenFile(dir, FileConfig{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if last, _ := st2.LastSeq("ds"); last != n {
		t.Fatalf("LastSeq after reopen = %d, want %d", last, n)
	}

	// Snapshot at seq 5 prunes the fully covered segments but keeps the tail.
	if err := st2.WriteSnapshot("ds", testSnapshot(5, 10)); err != nil {
		t.Fatal(err)
	}
	got := collect(t, st2, "ds", 5)
	if len(got) != n-5 {
		t.Fatalf("replay after mid snapshot: %d batches, want %d", len(got), n-5)
	}
	for i, b := range got {
		if !batchEq(b, testBatch(uint64(i)+6)) {
			t.Fatalf("replay after mid snapshot: batch %d mismatch", b.Seq)
		}
	}

	// Snapshot at the head rotates to one empty segment; appends continue.
	if err := st2.WriteSnapshot("ds", testSnapshot(n, 2*n)); err != nil {
		t.Fatal(err)
	}
	if segs := walSegmentPaths(t, dir, "ds"); len(segs) != 1 {
		t.Fatalf("segments after covering snapshot: %v, want one", segs)
	}
	if got := collect(t, st2, "ds", n); len(got) != 0 {
		t.Fatalf("replay after covering snapshot: %d batches, want 0", len(got))
	}
	if _, err := st2.Append("ds", testBatch(n+1)); err != nil {
		t.Fatalf("append after covering snapshot: %v", err)
	}
	st2.Close()

	st3, err := OpenFile(dir, FileConfig{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if last, _ := st3.LastSeq("ds"); last != n+1 {
		t.Fatalf("LastSeq after rotate+append+reopen = %d, want %d", last, n+1)
	}
	snap, err := st3.LoadSnapshot("ds")
	if err != nil || snap.Seq != n {
		t.Fatalf("snapshot after rotate: %+v, %v", snap, err)
	}
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
	if last, _ := st.LastSeq("ds"); last != 7 {
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
	if last, _ := st2.LastSeq("ds"); last != 8 {
		t.Fatalf("LastSeq after reopen = %d, want 8", last)
	}
	got := collect(t, st2, "ds", 7)
	if len(got) != 1 || !batchEq(got[0], testBatch(8)) {
		t.Fatalf("replay after re-base: %d batches", len(got))
	}
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
	if last, _ := st2.LastSeq("keep"); last != 0 {
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

func TestMemStore(t *testing.T) {
	m := NewMem()
	if m.Durable() {
		t.Fatal("mem store reports durable")
	}
	if err := m.CreateDataset(testConfig("ds"), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateDataset(testConfig("ds"), nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := m.LoadSnapshot("ds"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("snapshot of fresh mem dataset: %v", err)
	}
	if _, err := m.Append("ds", testBatch(2)); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap append: %v", err)
	}
	if _, err := m.Append("ds", testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if last, _ := m.LastSeq("ds"); last != 1 {
		t.Fatalf("LastSeq = %d, want 1", last)
	}
	if err := m.WriteSnapshot("ds", testSnapshot(1, 2)); err != nil {
		t.Fatal(err)
	}
	snap, err := m.LoadSnapshot("ds")
	if err != nil || snap.Seq != 1 {
		t.Fatalf("snapshot: %+v, %v", snap, err)
	}
	if got := collect(t, m, "ds", 0); len(got) != 0 {
		t.Fatalf("mem replay returned %d batches", len(got))
	}
	if err := m.DropDataset("ds"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LastSeq("ds"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("LastSeq after drop: %v", err)
	}
	sp, err := ParseSyncPolicy("never")
	if err != nil || sp != SyncNever {
		t.Fatalf("ParseSyncPolicy(never) = %v, %v", sp, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted junk")
	}
}
