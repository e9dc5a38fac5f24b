package registry

import (
	"errors"
	"testing"
	"time"

	utk "repro"
	"repro/internal/dataset"
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
	if _, err := reg.Create("sharded", recs, Options{MaxK: 4, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	var inserted int
	for _, name := range []string{"single", "sharded"} {
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
	for _, name := range []string{"single", "sharded"} {
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
	for _, name := range []string{"single", "sharded"} {
		ent, err := reg2.Get(name)
		if err != nil {
			t.Fatalf("recovered %s: %v", name, err)
		}
		got := ent.Engine.Stats()
		want := wantStats[name]
		if got.Epoch != want.Epoch || got.Live != want.Live {
			t.Fatalf("%s: recovered epoch/live %d/%d, want %d/%d", name, got.Epoch, got.Live, want.Epoch, want.Live)
		}
		if got.Shards != want.Shards {
			t.Fatalf("%s: recovered shards %d, want %d", name, got.Shards, want.Shards)
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
	if err := reg2.Drop("sharded"); err != nil {
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

// TestWedgeAutoHeal pins the bounded self-healing of a wedged entry: a
// transient append failure wedges the dataset, the update path retries the
// re-basing snapshot behind a backoff gate, a transient snapshot failure
// keeps the wedge (counted), a later attempt heals it without a manual
// snapshot, and a persistent failure stops being retried after the attempt
// budget — manual Snapshot remains the only way out then.
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

	// Persistent failure: the attempt budget bounds retries; once spent, no
	// more snapshots are attempted from the update path.
	fs.failAppends = 1
	fs.failSnapshots = 1 << 30
	if _, err := reg.Update("ds", ins); !errors.Is(err, errInjected) {
		t.Fatalf("update with failing append: %v", err)
	}
	for i := 0; i < healMaxRetries+3; i++ {
		armHeal(ent)
		if _, err := reg.Update("ds", ins); err == nil {
			t.Fatalf("attempt %d: update accepted while snapshots keep failing", i)
		}
	}
	d = ent.Durability(true)
	if !d.Wedged {
		t.Fatal("persistently failing entry unwedged itself")
	}
	if got := d.WedgeRetries - 2; got != healMaxRetries {
		t.Fatalf("heal attempts after budget = %d, want %d", got, healMaxRetries)
	}

	// Manual snapshot remains the operator path out.
	fs.failSnapshots = 0
	if _, err := reg.Snapshot("ds"); err != nil {
		t.Fatalf("manual snapshot: %v", err)
	}
	if _, err := reg.Update("ds", ins); err != nil {
		t.Fatalf("update after manual snapshot: %v", err)
	}
}

// rearmHeal backdates the calm-interval deadline stamped when the heal
// budget was exhausted, so the next Update re-arms immediately (the real
// interval is wall-clock).
func rearmHeal(t *testing.T, ent *Entry) {
	t.Helper()
	ent.mu.Lock()
	if ent.wedgeRearmAt.IsZero() {
		ent.mu.Unlock()
		t.Fatal("no calm-interval deadline stamped; budget not exhausted?")
	}
	ent.wedgeRearmAt = time.Now().Add(-time.Second)
	ent.mu.Unlock()
}

// TestWedgeRearmAfterCalm pins that an exhausted auto-heal budget is not
// permanent: once the calm interval stamped at exhaustion passes, the budget
// re-arms and a recovered store lets the update path heal the wedge on its
// own — no manual snapshot required.
func TestWedgeRearmAfterCalm(t *testing.T) {
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

	// Wedge the entry and exhaust the heal budget against a persistently
	// failing store.
	fs.failAppends = 1
	fs.failSnapshots = 1 << 30
	if _, err := reg.Update("ds", ins); !errors.Is(err, errInjected) {
		t.Fatalf("update with failing append: %v", err)
	}
	for i := 0; i < healMaxRetries; i++ {
		armHeal(ent)
		if _, err := reg.Update("ds", ins); err == nil {
			t.Fatalf("attempt %d: update accepted while snapshots keep failing", i)
		}
	}
	d := ent.Durability(true)
	if !d.Wedged || d.WedgeRetries != uint64(healMaxRetries) {
		t.Fatalf("after exhausting the budget: %+v", d)
	}

	// The store recovers, but inside the calm interval the exhausted budget
	// still rejects updates without attempting a snapshot.
	fs.failSnapshots = 0
	armHeal(ent)
	if _, err := reg.Update("ds", ins); err == nil {
		t.Fatal("update accepted before the calm interval elapsed")
	}
	if d := ent.Durability(true); d.WedgeRetries != uint64(healMaxRetries) {
		t.Fatalf("snapshot attempted with the budget exhausted: %+v", d)
	}

	// Past the calm interval the budget re-arms: the same update call
	// attempts the re-basing snapshot, succeeds, and is applied.
	rearmHeal(t, ent)
	res, err := reg.Update("ds", ins)
	if err != nil {
		t.Fatalf("update after calm-interval re-arm: %v", err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("healed update result: %+v", res)
	}
	d = ent.Durability(true)
	if d.Wedged || d.WedgeAutoHealed != 1 {
		t.Fatalf("after re-armed heal: %+v", d)
	}
	if d.WedgeRetries != uint64(healMaxRetries)+1 {
		t.Fatalf("re-armed attempt not counted: %+v", d)
	}

	// The healed entry keeps accepting updates.
	if _, err := reg.Update("ds", ins); err != nil {
		t.Fatalf("update after heal: %v", err)
	}
}

func TestManualSnapshot(t *testing.T) {
	mem := New()
	recs := dataset.Synthetic(dataset.IND, 40, 3, 2)
	if _, err := mem.Create("ds", recs, Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Snapshot("ds"); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("snapshot over mem store: %v", err)
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
