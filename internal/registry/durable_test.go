package registry

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	utk "repro"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/store"
)

func openFileRegistry(t *testing.T, dir string, pol SnapshotPolicy) (*Registry, *store.File) {
	t.Helper()
	st, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Open(st, pol)
	if err != nil {
		t.Fatal(err)
	}
	return reg, st
}

func TestDurableCreateReopenDrop(t *testing.T) {
	dir := t.TempDir()
	recs := dataset.Synthetic(dataset.IND, 100, 3, 5)

	reg, st := openFileRegistry(t, dir, SnapshotPolicy{})
	if !reg.Durable() {
		t.Fatal("file-backed registry reports not durable")
	}
	if _, err := reg.Create("single", recs, Options{MaxK: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("other", recs, Options{MaxK: 4}); err != nil {
		t.Fatal(err)
	}
	var inserted int
	for _, name := range []string{"single", "other"} {
		res, err := reg.Update(name, []utk.UpdateOp{
			{Kind: utk.UpdateInsert, Record: []float64{0.9, 0.9, 0.9}},
			{Kind: utk.UpdateDelete, ID: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		inserted = res.IDs[0]
	}
	wantStats := map[string]utk.EngineStats{}
	for _, name := range []string{"single", "other"} {
		ent, _ := reg.Get(name)
		wantStats[name] = ent.Engine.Stats()
		d := ent.Durability(true)
		if d.WALAppends != 1 || d.LastSeq != 1 {
			t.Fatalf("%s durability after one update: %+v", name, d)
		}
		if d.SnapshotsWritten != 1 { // creation's initial snapshot
			t.Fatalf("%s snapshots written = %d, want 1", name, d.SnapshotsWritten)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, st2 := openFileRegistry(t, dir, SnapshotPolicy{})
	for _, name := range []string{"single", "other"} {
		ent, err := reg2.Get(name)
		if err != nil {
			t.Fatalf("recovered %s: %v", name, err)
		}
		got := ent.Engine.Stats()
		want := wantStats[name]
		if got.Epoch != want.Epoch || got.Live != want.Live {
			t.Fatalf("%s: recovered epoch/live %d/%d, want %d/%d", name, got.Epoch, got.Live, want.Epoch, want.Live)
		}
		d := ent.Durability(true)
		if d.ReplayedBatches != 1 || d.ReplayedOps != 2 {
			t.Fatalf("%s: replayed %d batches / %d ops, want 1/2", name, d.ReplayedBatches, d.ReplayedOps)
		}
		// The recovered engine keeps serving updates where the log left off.
		if _, err := reg2.Update(name, []utk.UpdateOp{{Kind: utk.UpdateDelete, ID: inserted}}); err != nil {
			t.Fatalf("%s: update after recovery: %v", name, err)
		}
	}
	if err := reg2.Drop("other"); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	reg3, st3 := openFileRegistry(t, dir, SnapshotPolicy{})
	defer st3.Close()
	if names := reg3.Names(); len(names) != 1 || names[0] != "single" {
		t.Fatalf("names after drop+reopen: %v", names)
	}
}

func TestAutoSnapshotPolicy(t *testing.T) {
	dir := t.TempDir()
	recs := dataset.Synthetic(dataset.IND, 60, 3, 9)
	reg, st := openFileRegistry(t, dir, SnapshotPolicy{EveryOps: 5})
	if _, err := reg.Create("ds", recs, Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.5, 0.5, 0.5}}}); err != nil {
			t.Fatal(err)
		}
	}
	ent, _ := reg.Get("ds")
	d := ent.Durability(true)
	if d.SnapshotsWritten < 3 { // initial + two ops-threshold crossings
		t.Fatalf("snapshots written = %d, want >= 3 at EveryOps=5 over 12 ops", d.SnapshotsWritten)
	}
	if d.LastSnapshotSeq == 0 || d.OpsSinceSnapshot >= 5 {
		t.Fatalf("snapshot scheduling state: %+v", d)
	}
	st.Close()

	// Recovery replays only the tail after the last auto-snapshot.
	reg2, st2 := openFileRegistry(t, dir, SnapshotPolicy{EveryOps: 5})
	defer st2.Close()
	ent2, err := reg2.Get("ds")
	if err != nil {
		t.Fatal(err)
	}
	d2 := ent2.Durability(true)
	if d2.ReplayedBatches >= 5 {
		t.Fatalf("replayed %d batches, want < 5 (snapshot bounds the tail)", d2.ReplayedBatches)
	}
	if d2.ReplayedOps == 0 || d2.OpsSinceSnapshot != int(d2.ReplayedOps) {
		t.Fatalf("a restart must keep counting the replayed tail toward EveryOps: %+v", d2)
	}
	if got := ent2.Engine.Stats().Live; got != 72 {
		t.Fatalf("recovered live = %d, want 72", got)
	}
}

// flakyStore wraps a real store with injectable append/snapshot failures, so
// the wedge and auto-heal paths run against genuine durable state.
type flakyStore struct {
	store.Store
	failAppends   int
	failSnapshots int
}

var errInjected = errors.New("injected I/O failure")

func (f *flakyStore) Append(name string, b *store.Batch) (int64, error) {
	if f.failAppends > 0 {
		f.failAppends--
		return 0, errInjected
	}
	return f.Store.Append(name, b)
}

func (f *flakyStore) WriteSnapshot(name string, snap *store.Snapshot) error {
	if f.failSnapshots > 0 {
		f.failSnapshots--
		return errInjected
	}
	return f.Store.WriteSnapshot(name, snap)
}

// armHeal opens the auto-heal backoff gate so the next Update attempts the
// re-basing snapshot immediately (the schedule itself is wall-clock).
func armHeal(ent *Entry) {
	ent.mu.Lock()
	ent.wedgeNextTry = time.Time{}
	ent.mu.Unlock()
}

// TestWedgeAutoHeal pins the self-healing of a wedged entry: a transient
// append failure wedges the dataset, the update path retries the re-basing
// snapshot behind a backoff gate, a transient snapshot failure keeps the
// wedge (counted), a later attempt heals it without a manual snapshot; a
// persistent failure is retried behind a doubling backoff capped at
// healMaxBackoff, a store that recovers after it still heals on the next
// update, and a manual Snapshot clears a wedge at once.
func TestWedgeAutoHeal(t *testing.T) {
	dir := t.TempDir()
	base, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	fs := &flakyStore{Store: base}
	reg := NewWithStore(fs, SnapshotPolicy{})
	recs := dataset.Synthetic(dataset.IND, 50, 3, 4)
	if _, err := reg.Create("ds", recs, Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	ins := []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.5, 0.5, 0.5}}}
	ent, _ := reg.Get("ds")

	// Wedge: the append fails, the update is applied but rejected as
	// not-durable, and further updates bounce off the wedge.
	fs.failAppends = 1
	if _, err := reg.Update("ds", ins); !errors.Is(err, errInjected) {
		t.Fatalf("update with failing append: %v", err)
	}
	if d := ent.Durability(true); !d.Wedged {
		t.Fatal("entry not wedged after append failure")
	}
	// Within the backoff window no heal is attempted.
	if _, err := reg.Update("ds", ins); err == nil {
		t.Fatal("update accepted while wedged inside the backoff window")
	}
	if d := ent.Durability(true); d.WedgeRetries != 0 {
		t.Fatalf("heal attempted inside the backoff window: %+v", d)
	}

	// First armed attempt fails (transient snapshot error): still wedged,
	// attempt counted, backoff grows.
	fs.failSnapshots = 1
	armHeal(ent)
	if _, err := reg.Update("ds", ins); err == nil {
		t.Fatal("update accepted although the healing snapshot failed")
	}
	d := ent.Durability(true)
	if !d.Wedged || d.WedgeRetries != 1 || d.WedgeAutoHealed != 0 || d.SnapshotErrors != 1 {
		t.Fatalf("after failed heal attempt: %+v", d)
	}

	// Second armed attempt succeeds: the wedge clears and the same update
	// call is applied and logged.
	armHeal(ent)
	res, err := reg.Update("ds", ins)
	if err != nil {
		t.Fatalf("update after heal: %v", err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("healed update result: %+v", res)
	}
	d = ent.Durability(true)
	if d.Wedged || d.WedgeAutoHealed != 1 || d.WedgeRetries != 2 {
		t.Fatalf("after successful heal: %+v", d)
	}
	if d.WALAppends != 1 {
		t.Fatalf("healed update not logged: %+v", d)
	}

	// Persistent failure: every attempt the gate lets through fails and
	// doubles the backoff until it reaches the cap, where it stays — at most
	// one attempt per healMaxBackoff, however long the failure lasts. Inside
	// the window no attempt is made.
	fs.failAppends = 1
	fs.failSnapshots = 1 << 30
	if _, err := reg.Update("ds", ins); !errors.Is(err, errInjected) {
		t.Fatalf("update with failing append: %v", err)
	}
	const attempts = 12 // 100 ms doubles past the 5 s cap in 6
	for i := 0; i < attempts; i++ {
		armHeal(ent)
		if _, err := reg.Update("ds", ins); err == nil {
			t.Fatalf("attempt %d: update accepted while snapshots keep failing", i)
		}
		ent.mu.Lock()
		backoff, wait := ent.wedgeBackoff, time.Until(ent.wedgeNextTry)
		ent.mu.Unlock()
		if want := min(healInitialBackoff<<(i+1), healMaxBackoff); backoff != want || wait > backoff {
			t.Fatalf("attempt %d: backoff %v, next try in %v; want %v", i, backoff, wait, want)
		}
		if _, err := reg.Update("ds", ins); err == nil {
			t.Fatalf("attempt %d: update accepted inside the backoff window", i)
		}
	}
	d = ent.Durability(true)
	if !d.Wedged || d.WedgeRetries-2 != attempts || d.WedgeAutoHealed != 1 {
		t.Fatalf("after %d failing attempts: %+v", attempts, d)
	}

	// The store recovers: once the capped backoff has passed, the next
	// update heals the wedge on its own — no manual snapshot.
	fs.failSnapshots = 0
	armHeal(ent)
	if _, err := reg.Update("ds", ins); err != nil {
		t.Fatalf("update after the store recovered: %v", err)
	}
	d = ent.Durability(true)
	if d.Wedged || d.WedgeAutoHealed != 2 || d.WedgeRetries-2 != attempts+1 {
		t.Fatalf("after the recovered store healed: %+v", d)
	}

	// A manual snapshot clears a wedge at once, inside the backoff window.
	fs.failAppends = 1
	if _, err := reg.Update("ds", ins); !errors.Is(err, errInjected) {
		t.Fatalf("update with failing append: %v", err)
	}
	if _, err := reg.Snapshot("ds"); err != nil {
		t.Fatalf("manual snapshot: %v", err)
	}
	if _, err := reg.Update("ds", ins); err != nil {
		t.Fatalf("update after manual snapshot: %v", err)
	}
}

func TestManualSnapshot(t *testing.T) {
	mem := New()
	recs := dataset.Synthetic(dataset.IND, 40, 3, 2)
	if _, err := mem.Create("ds", recs, Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Snapshot("ds"); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("snapshot over in-memory registry: %v", err)
	}
	if _, err := mem.Snapshot("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("snapshot of unknown dataset: %v", err)
	}

	dir := t.TempDir()
	reg, st := openFileRegistry(t, dir, SnapshotPolicy{})
	if _, err := reg.Create("ds", recs, Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.4, 0.4, 0.4}}}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := reg.Snapshot("ds")
	if err != nil {
		t.Fatal(err)
	}
	if d.LastSnapshotSeq != 4 || d.SnapshotsWritten != 2 || d.OpsSinceSnapshot != 0 {
		t.Fatalf("durability after manual snapshot: %+v", d)
	}
	st.Close()

	reg2, st2 := openFileRegistry(t, dir, SnapshotPolicy{})
	defer st2.Close()
	ent, err := reg2.Get("ds")
	if err != nil {
		t.Fatal(err)
	}
	d2 := ent.Durability(true)
	if d2.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches after checkpoint, want 0", d2.ReplayedBatches)
	}
	if got := ent.Engine.Stats().Live; got != 44 {
		t.Fatalf("recovered live = %d, want 44", got)
	}
}

// TestDurableRefusesEmptyBatch pins that an update with no ops is refused
// with ErrBadUpdate, in memory and on a file store, and neither reaches the
// log nor moves the engine: every logged batch carries at least one op.
func TestDurableRefusesEmptyBatch(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 40, 3, 2)
	durable, st := openFileRegistry(t, t.TempDir(), SnapshotPolicy{})
	defer st.Close()
	for _, reg := range []*Registry{New(), durable} {
		ent, err := reg.Create("ds", recs, Options{MaxK: 3})
		if err != nil {
			t.Fatal(err)
		}
		before := ent.Engine.Stats()
		for _, ops := range [][]utk.UpdateOp{nil, {}} {
			if _, err := reg.Update("ds", ops); !errors.Is(err, utk.ErrBadUpdate) {
				t.Fatalf("durable=%v: empty batch %#v: %v, want ErrBadUpdate", reg.Durable(), ops, err)
			}
		}
		if after := ent.Engine.Stats(); after.UpdateBatches != before.UpdateBatches || after.Epoch != before.Epoch {
			t.Fatalf("durable=%v: empty batches moved the engine: %+v -> %+v", reg.Durable(), before, after)
		}
		if d := ent.Durability(reg.Durable()); d.LastSeq != 0 || d.WALAppends != 0 || d.Wedged {
			t.Fatalf("durable=%v: empty batches reached the log: %+v", reg.Durable(), d)
		}
	}
}

// TestAutoSnapshotFailureKeepsCounters pins the retry of a failed automatic
// snapshot: the WAL tail counters keep describing the log, which still holds
// every batch since the last good snapshot, and the next attempt comes
// EveryOps ops after the failed one, not at every batch.
func TestAutoSnapshotFailureKeepsCounters(t *testing.T) {
	const every = 4
	base, err := store.OpenFile(t.TempDir(), store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	fs := &flakyStore{Store: base}
	reg := NewWithStore(fs, SnapshotPolicy{EveryOps: every})
	ent, err := reg.Create("ds", dataset.Synthetic(dataset.IND, 50, 3, 6), Options{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	fs.failSnapshots = 1 << 30
	var bytes int64
	for op := 1; op <= 3*every; op++ {
		if op == 2*every+1 {
			fs.failSnapshots = 0 // the third attempt, at 3·every ops, succeeds
		}
		if _, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.5, 0.5, 0.5}}}); err != nil {
			t.Fatal(err)
		}
		d := ent.Durability(true)
		bytes = int64(d.WALBytes)
		if op == 3*every {
			if d.SnapshotsWritten != 2 || d.OpsSinceSnapshot != 0 || d.BytesSinceSnapshot != 0 || d.SnapshotErrors != 2 {
				t.Fatalf("after the successful attempt: %+v", d)
			}
			break
		}
		if want := uint64(op / every); d.SnapshotErrors != want || d.SnapshotsWritten != 1 {
			t.Fatalf("op %d: %d failed and %d written snapshots, want %d failed attempts (one every %d ops) and 1 written", op, d.SnapshotErrors, d.SnapshotsWritten, want, every)
		}
		if d.OpsSinceSnapshot != op || d.BytesSinceSnapshot != bytes {
			t.Fatalf("op %d: the tail counters read %d ops, %d bytes; the log holds %d ops, %d bytes", op, d.OpsSinceSnapshot, d.BytesSinceSnapshot, op, bytes)
		}
	}
}

// TestRecoveryCountsWALBytes pins that recovery counts the replayed frames'
// bytes as the WAL tail, as the process that wrote them did.
func TestRecoveryCountsWALBytes(t *testing.T) {
	dir := t.TempDir()
	reg, st := openFileRegistry(t, dir, SnapshotPolicy{})
	if _, err := reg.Create("ds", dataset.Synthetic(dataset.IND, 50, 3, 8), Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Snapshot("ds"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.9, 0.9, 0.9}}, {Kind: utk.UpdateDelete, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	ent, _ := reg.Get("ds")
	before := ent.Durability(true)
	st.Close()

	reg, st = openFileRegistry(t, dir, SnapshotPolicy{})
	defer st.Close()
	ent, _ = reg.Get("ds")
	after := ent.Durability(true)
	if before.BytesSinceSnapshot <= 0 || after.BytesSinceSnapshot != before.BytesSinceSnapshot || after.OpsSinceSnapshot != before.OpsSinceSnapshot {
		t.Fatalf("tail before close %d ops, %d bytes; after recovery %d ops, %d bytes", before.OpsSinceSnapshot, before.BytesSinceSnapshot, after.OpsSinceSnapshot, after.BytesSinceSnapshot)
	}
}

// TestDurableFailedValidationLogsNothing pins that a batch the engine refuses
// at validation leaves the engine unchanged and writes no WAL frame: the
// log's bytes and the entry's LastSeq stay put, and the next good batch
// takes the next sequence number and the ids the refused batch would have
// taken.
func TestDurableFailedValidationLogsNothing(t *testing.T) {
	dir := t.TempDir()
	reg, st := openFileRegistry(t, dir, SnapshotPolicy{})
	defer st.Close()
	ent, err := reg.Create("ds", dataset.Synthetic(dataset.IND, 50, 3, 10), Options{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	top := []float64{2, 2, 2}
	if _, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: top}}); err != nil {
		t.Fatal(err)
	}
	walBytes := func() int64 {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "datasets", "ds", "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	state, stats, bytes := ent.Engine.ExportState(), ent.Engine.Stats(), walBytes()
	dur := ent.Durability(true)
	for name, ops := range map[string][]utk.UpdateOp{
		"unknown id":       {{Kind: utk.UpdateInsert, Record: top}, {Kind: utk.UpdateDelete, ID: 999}},
		"duplicate delete": {{Kind: utk.UpdateDelete, ID: 2}, {Kind: utk.UpdateDelete, ID: 2}},
		"bad record":       {{Kind: utk.UpdateDelete, ID: 2}, {Kind: utk.UpdateInsert, Record: []float64{1, 1}}},
	} {
		if _, err := reg.Update("ds", ops); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if got := ent.Engine.ExportState(); !reflect.DeepEqual(got, state) || ent.Engine.Stats().Inserts != stats.Inserts || ent.Engine.Stats().UpdateBatches != stats.UpdateBatches {
			t.Fatalf("%s: the refused batch changed the engine", name)
		}
		if d := ent.Durability(true); walBytes() != bytes || d.LastSeq != dur.LastSeq || d.WALAppends != dur.WALAppends || d.Wedged {
			t.Fatalf("%s: the refused batch reached the log: %d WAL bytes, %+v; before LastSeq %d, %d bytes", name, walBytes(), d, dur.LastSeq, bytes)
		}
	}
	res, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: top}})
	if err != nil {
		t.Fatal(err)
	}
	if d := ent.Durability(true); res.IDs[0] != state.Dyn.NextID || d.LastSeq != dur.LastSeq+1 {
		t.Fatalf("next good batch: id %d at seq %d, want id %d at seq %d", res.IDs[0], d.LastSeq, state.Dyn.NextID, dur.LastSeq+1)
	}
}

// logOneFrame creates a durable dataset in a fresh directory and logs one
// band-changing batch by hand as a frame of the given version whose epoch
// pick chooses from the epoch the batch applies on and the one after it.
// It returns the directory and both epochs.
func logOneFrame(t *testing.T, version int, pick func(base, post uint64) uint64) (dir string, base, post uint64) {
	t.Helper()
	dir = t.TempDir()
	reg, st := openFileRegistry(t, dir, SnapshotPolicy{})
	defer st.Close()
	opts := Options{MaxK: 3}
	ent, err := reg.Create("ds", dataset.Synthetic(dataset.IND, 50, 3, 12), opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{2, 2, 2}}, {Kind: utk.UpdateDelete, ID: 3}}
	twin, err := engine.Restore(ent.Engine.ExportState(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := twin.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	base, post = ent.Engine.Epoch(), res.Epoch
	if post == base {
		t.Fatal("the batch did not change the band")
	}
	if _, err := st.Append("ds", &store.Batch{Version: version, Seq: 1, Epoch: pick(base, post), Ops: ops}); err != nil {
		t.Fatal(err)
	}
	return dir, base, post
}

func reopenOne(t *testing.T, dir string) (*Entry, error) {
	t.Helper()
	st, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	reg, err := Open(st, SnapshotPolicy{})
	if err != nil {
		return nil, err
	}
	return reg.Get("ds")
}

// TestReplayV1FramePostApplyCheck pins that a v1 frame, written before
// frames logged the epoch a batch applies on, still replays under its
// post-apply check: logged with the epoch after the batch it replays, and
// a v1 frame logged with the epoch before it (a planted fault) is refused.
func TestReplayV1FramePostApplyCheck(t *testing.T) {
	dir, _, post := logOneFrame(t, store.BatchV1, func(_, post uint64) uint64 { return post })
	ent, err := reopenOne(t, dir)
	if err != nil {
		t.Fatalf("reopen over a v1 frame: %v", err)
	}
	if d := ent.Durability(true); ent.Engine.Epoch() != post || d.ReplayedBatches != 1 {
		t.Fatalf("replayed %d batches to epoch %d, want 1 to %d", d.ReplayedBatches, ent.Engine.Epoch(), post)
	}

	dir, _, _ = logOneFrame(t, store.BatchV1, func(base, _ uint64) uint64 { return base })
	if _, err := reopenOne(t, dir); err == nil {
		t.Fatal("a v1 frame logged with its base epoch replayed")
	}
}

// TestReplayRefusesV2EpochMismatch pins the v2 check: a frame logged with
// the epoch its batch applies on replays, and one whose logged epoch
// disagrees with the engine's before the batch (a planted fault: the epoch
// after it) is refused.
func TestReplayRefusesV2EpochMismatch(t *testing.T) {
	dir, _, post := logOneFrame(t, store.BatchV2, func(base, _ uint64) uint64 { return base })
	ent, err := reopenOne(t, dir)
	if err != nil {
		t.Fatalf("reopen over a v2 frame: %v", err)
	}
	if ent.Engine.Epoch() != post {
		t.Fatalf("replayed to epoch %d, want %d", ent.Engine.Epoch(), post)
	}

	dir, _, _ = logOneFrame(t, store.BatchV2, func(_, post uint64) uint64 { return post })
	if _, err := reopenOne(t, dir); err == nil {
		t.Fatal("a v2 frame logged with the post-batch epoch replayed")
	}
}

// TestDurableRecoverLogBehindSnapshot recovers the directory a SyncNever
// crash can leave: the snapshot at 3 is durable, but the log lost the frames
// of batches 2 and 3 and the crash came before the snapshot restarted it.
// Recovery re-bases the log after the snapshot without writing another, so
// the next update is logged at 4 and survives a further reopen.
func TestDurableRecoverLogBehindSnapshot(t *testing.T) {
	dir := t.TempDir()
	reg, st := openFileRegistry(t, dir, SnapshotPolicy{})
	if _, err := reg.Create("ds", dataset.Synthetic(dataset.IND, 50, 3, 13), Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir, "datasets", "ds", "wal-00000000000000000001.log")
	var oneFrame []byte
	for i := range 3 {
		if _, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.9, 0.1 * float64(i), 0.5}}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			var err error
			if oneFrame, err = os.ReadFile(seg1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := reg.Snapshot("ds"); err != nil {
		t.Fatal(err)
	}
	ent, _ := reg.Get("ds")
	live := ent.Len()
	st.Close()
	paths, err := filepath.Glob(filepath.Join(dir, "datasets", "ds", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(seg1, oneFrame, 0o644); err != nil {
		t.Fatal(err)
	}

	reg, st = openFileRegistry(t, dir, SnapshotPolicy{})
	ent, err = reg.Get("ds")
	if err != nil {
		t.Fatal(err)
	}
	if d := ent.Durability(true); d.LastSeq != 3 || d.ReplayedBatches != 0 || d.SnapshotsWritten != 0 || ent.Len() != live {
		t.Fatalf("recovered %d live records at %+v; want %d at seq 3, nothing replayed, no snapshot written", ent.Len(), d, live)
	}
	if _, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.95, 0.95, 0.95}}}); err != nil {
		t.Fatalf("update after the re-base: %v", err)
	}
	if d := ent.Durability(true); d.LastSeq != 4 || d.WALAppends != 1 {
		t.Fatalf("update after the re-base logged at %+v, want seq 4", d)
	}
	st.Close()

	reg, st = openFileRegistry(t, dir, SnapshotPolicy{})
	defer st.Close()
	ent, err = reg.Get("ds")
	if err != nil {
		t.Fatal(err)
	}
	if d := ent.Durability(true); d.LastSeq != 4 || d.ReplayedBatches != 1 || ent.Len() != live+1 {
		t.Fatalf("second reopen: %d live records at %+v; want %d after replaying batch 4", ent.Len(), d, live+1)
	}
}

// holdStore holds every Append until release is closed, announcing each on
// entered first.
type holdStore struct {
	store.Store
	entered, release chan struct{}
}

func (h *holdStore) Append(name string, b *store.Batch) (int64, error) {
	h.entered <- struct{}{}
	<-h.release
	return h.Store.Append(name, b)
}

// TestDurableDropWaitsForInFlightUpdate pins that a drop cannot overtake a
// durable update whose append is still pending: were the dataset dropped and
// re-created under the same name in between, the stale batch would land in
// the new dataset's log and replay into it at the next open.
func TestDurableDropWaitsForInFlightUpdate(t *testing.T) {
	dir := t.TempDir()
	base, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	hs := &holdStore{Store: base, entered: make(chan struct{}, 1), release: make(chan struct{})}
	reg := NewWithStore(hs, SnapshotPolicy{})
	if _, err := reg.Create("ds", dataset.Synthetic(dataset.IND, 40, 3, 14), Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	fresh := dataset.Synthetic(dataset.IND, 30, 3, 15)
	updated := make(chan error, 1)
	go func() {
		_, err := reg.Update("ds", []utk.UpdateOp{{Kind: utk.UpdateInsert, Record: []float64{0.9, 0.9, 0.9}}})
		updated <- err
	}()
	<-hs.entered
	var recreateErr error
	recreated := make(chan struct{})
	go func() {
		defer close(recreated)
		if recreateErr = reg.Drop("ds"); recreateErr == nil {
			_, recreateErr = reg.Create("ds", fresh, Options{MaxK: 3})
		}
	}()
	select {
	case <-recreated:
	case <-time.After(200 * time.Millisecond):
	}
	close(hs.release)
	if err := <-updated; err != nil {
		t.Fatalf("in-flight update: %v", err)
	}
	<-recreated
	if recreateErr != nil {
		t.Fatalf("drop + create: %v", recreateErr)
	}
	base.Close()

	reg, st := openFileRegistry(t, dir, SnapshotPolicy{})
	defer st.Close()
	ent, err := reg.Get("ds")
	if err != nil {
		t.Fatal(err)
	}
	if d := ent.Durability(true); ent.Len() != len(fresh) || d.ReplayedBatches != 0 {
		t.Fatalf("re-created dataset holds %d records after replaying %d batches, want its own %d and none", ent.Len(), d.ReplayedBatches, len(fresh))
	}
}
