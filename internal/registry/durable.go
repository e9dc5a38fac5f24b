package registry

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// SnapshotPolicy schedules automatic snapshots per dataset: a snapshot is
// taken after a durable update once the ops threshold is crossed. Snapshots
// bound recovery cost (replay starts at the last snapshot) and restart the
// store's WAL, so the log holds at most about EveryOps ops.
type SnapshotPolicy struct {
	// EveryOps snapshots after this many logged update ops (zero selects
	// DefaultSnapshotEveryOps; negative disables automatic snapshots).
	EveryOps int
}

// DefaultSnapshotEveryOps is the ops threshold of SnapshotPolicy{}.
const DefaultSnapshotEveryOps = 4096

// Wedge auto-heal schedule: after an append failure wedges an entry, the
// update path itself retries the re-basing snapshot behind a backoff that
// starts at healInitialBackoff and doubles up to healMaxBackoff — a
// transient disk error clears without an operator, a persistent one costs
// at most one attempt per healMaxBackoff, and a disk that recovers at any
// later time heals on the next update past the backoff. A manual Snapshot
// clears the wedge at once; the wedge never silently unwedges without a
// durable snapshot succeeding.
const (
	healInitialBackoff = 100 * time.Millisecond
	healMaxBackoff     = 5 * time.Second
)

func (p SnapshotPolicy) withDefaults() SnapshotPolicy {
	if p.EveryOps == 0 {
		p.EveryOps = DefaultSnapshotEveryOps
	}
	return p
}

// DurabilityStats is the per-dataset durability snapshot surfaced through
// /stats and /metrics.
type DurabilityStats struct {
	// Durable reports the store kind; LastSeq the last durably logged batch
	// sequence number; Wedged whether updates are currently rejected
	// because an append failure left the engine ahead of the log.
	Durable bool   `json:"durable"`
	LastSeq uint64 `json:"last_seq"`
	Wedged  bool   `json:"wedged,omitempty"`
	// WALAppends and WALBytes count batches and bytes logged by this
	// process; SnapshotsWritten and SnapshotErrors count snapshot attempts.
	WALAppends       uint64 `json:"wal_appends"`
	WALBytes         uint64 `json:"wal_bytes"`
	SnapshotsWritten uint64 `json:"snapshots_written"`
	SnapshotErrors   uint64 `json:"snapshot_errors,omitempty"`
	// WedgeRetries counts auto-heal snapshot attempts made from the update
	// path while wedged; WedgeAutoHealed counts wedges those attempts
	// cleared without a manual snapshot.
	WedgeRetries    uint64 `json:"wedge_retries,omitempty"`
	WedgeAutoHealed uint64 `json:"wedge_auto_healed,omitempty"`
	// ReplayedBatches/ReplayedOps and RecoveryMillis describe the recovery
	// that produced this entry (zero for datasets created in-process).
	ReplayedBatches uint64 `json:"replayed_batches"`
	ReplayedOps     uint64 `json:"replayed_ops"`
	RecoveryMillis  int64  `json:"recovery_ms"`
	// LastSnapshot* describe the most recent snapshot (creation's initial
	// snapshot counts); OpsSinceSnapshot/BytesSinceSnapshot the WAL tail a
	// crash right now would replay.
	LastSnapshotSeq       uint64 `json:"last_snapshot_seq"`
	LastSnapshotEpoch     uint64 `json:"last_snapshot_epoch"`
	LastSnapshotUnixMilli int64  `json:"last_snapshot_unix_ms"`
	OpsSinceSnapshot      int    `json:"ops_since_snapshot"`
	BytesSinceSnapshot    int64  `json:"bytes_since_snapshot"`
}

// Durability snapshots the entry's durability counters.
func (e *Entry) Durability(durable bool) DurabilityStats {
	e.dmu.Lock()
	d := e.dur
	e.dmu.Unlock()
	d.Durable = durable
	return d
}

// Open recovers every dataset a durable store's manifest lists: restore the
// last snapshot, then replay the WAL tail through the ordinary ApplyBatch
// machinery — O(snapshot + tail) instead of a full rebuild. The store checks
// each replayed batch against the epoch its frame logged and refuses a log
// that disagrees (it would mean replay diverged from the original
// application, which the determinism of update application rules out for
// intact data); the epoch it returns may run ahead of the replayed engine's
// (a log older formats wrote, see store.Store.Replay), and the engine is then
// restored at it once. Replay also opens each dataset's log for the updates
// that follow; no snapshot is written at open.
func Open(st store.Store, pol SnapshotPolicy) (*Registry, error) {
	r := NewWithStore(st, pol)
	mf, err := st.LoadManifest()
	if err != nil {
		return nil, err
	}
	for _, cfg := range mf.Datasets {
		ent, err := r.reopen(cfg)
		if err != nil {
			return nil, fmt.Errorf("registry: reopen %s: %w", cfg.Name, err)
		}
		r.entries[cfg.Name] = ent
	}
	return r, nil
}

// reopen recovers one dataset from its snapshot plus WAL tail. The replay
// also opens the dataset's log for appending at seq+1: a log that ended
// before the snapshot (frames lost under SyncNever behind the fsynced
// snapshot) is re-based after it by the store, with no snapshot rewritten.
func (r *Registry) reopen(cfg store.DatasetConfig) (*Entry, error) {
	start := time.Now()
	snap, err := r.st.LoadSnapshot(cfg.Name)
	if err != nil {
		return nil, err
	}
	eng, err := engine.Restore(snap.Engine, cfg.Config)
	if err != nil {
		return nil, err
	}
	var batches, ops uint64
	var nbytes int64
	epoch, err := r.st.Replay(cfg.Name, snap.Seq, eng.Epoch(), func(b *store.Batch, size int64) (uint64, error) {
		res, err := eng.ApplyBatch(b.Ops)
		if err != nil {
			return 0, fmt.Errorf("replay batch %d: %w", b.Seq, err)
		}
		batches++
		ops += uint64(len(b.Ops))
		nbytes += size
		return res.Epoch, nil
	})
	if err == nil && epoch > eng.Epoch() {
		st := eng.ExportState()
		st.Epoch = epoch
		eng, err = engine.Restore(st, cfg.Config)
	}
	if err != nil {
		return nil, err
	}
	ent := &Entry{Name: cfg.Name, Engine: eng, Opts: cfg.Config, dur: DurabilityStats{
		LastSeq:               snap.Seq + batches, // the store replays a contiguous tail
		ReplayedBatches:       batches,
		ReplayedOps:           ops,
		OpsSinceSnapshot:      int(ops), // the replayed tail counts toward EveryOps
		BytesSinceSnapshot:    nbytes,
		RecoveryMillis:        time.Since(start).Milliseconds(),
		LastSnapshotSeq:       snap.Seq,
		LastSnapshotEpoch:     snap.Epoch,
		LastSnapshotUnixMilli: snap.UnixMilli,
	}}
	return ent, nil
}

// Update routes a batch to the named dataset's engine. Without a store it
// applies the batch and returns. With one it durably logs the batch before
// acknowledging: validate, then apply and append to the WAL side by side,
// under the entry's update mutex. An acknowledged update therefore survives any crash; an update
// whose append fails is NOT acknowledged — the entry wedges (further updates
// rejected) until a successful snapshot re-bases the log on the engine's
// state, because the engine is ahead of the WAL and appending later batches
// would persist a stream with a hole. An empty batch is refused
// (engine.ErrBadUpdate), so every logged batch carries at least one op.
func (r *Registry) Update(name string, ops []engine.UpdateOp) (*engine.UpdateResult, error) {
	ent, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: empty batch", engine.ErrBadUpdate)
	}
	if r.st == nil {
		return ent.Engine.ApplyBatch(ops)
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.dropped {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	if ent.wedged != nil && !r.heal(ent) {
		return nil, fmt.Errorf("%w: %s (unlogged batch: %w)", ErrWedged, name, ent.wedged)
	}
	// Pipelined apply: stage one validates the batch and fixes its ids under
	// the engine's update mutex without changing the engine, so a batch that
	// fails validation is refused before anything is logged. Then the WAL
	// append — fsync included — runs on a helper goroutine while this one
	// runs stage two: band maintenance, the invalidation probes and the
	// index publish. Neither needs the other's result: the frame logs the
	// epoch the batch applies on, the one published between the stages
	// (nothing can publish while the batch holds the update mutex), and
	// replay checks it before applying the batch. The CPU-bound stage stays
	// on the caller: spawned, it would wait for a P behind the goroutine
	// blocked in the fsync. Both finish before the update is acknowledged (or
	// its failure reported), preserving read-your-writes and the durability
	// contract.
	res, commit, err := ent.Engine.ApplyBatchPipelined(ops)
	if err != nil {
		return nil, err
	}
	seq := ent.dur.LastSeq + 1
	batch := &store.Batch{Seq: seq, Epoch: ent.Engine.Epoch(), Ops: ops}
	var nbytes int64
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		nbytes, err = r.st.Append(name, batch)
	}()
	commit()
	<-appended
	if err != nil {
		ent.wedged = err
		ent.wedgeBackoff = healInitialBackoff
		ent.wedgeNextTry = time.Now().Add(healInitialBackoff)
		ent.dmu.Lock()
		ent.dur.Wedged = true
		ent.dmu.Unlock()
		return nil, fmt.Errorf("%w: %s: %w", ErrNotLogged, name, err)
	}
	ent.dmu.Lock()
	ent.dur.LastSeq = seq
	ent.dur.WALAppends++
	ent.dur.WALBytes += uint64(nbytes)
	ent.dur.OpsSinceSnapshot += len(ops)
	ent.dur.BytesSinceSnapshot += nbytes
	since := ent.dur.OpsSinceSnapshot
	ent.dmu.Unlock()
	if r.pol.EveryOps > 0 && since >= max(r.pol.EveryOps, ent.snapRetryAt) {
		// Auto-snapshot failures don't fail the update (it is already
		// durable in the WAL); they are counted and retried EveryOps ops
		// later rather than at every batch. The counters keep describing the
		// log, which still holds every batch since the last good snapshot.
		if serr := r.snapshotEntry(ent); serr != nil {
			ent.snapRetryAt = since + r.pol.EveryOps
			ent.dmu.Lock()
			ent.dur.SnapshotErrors++
			ent.dmu.Unlock()
		}
	}
	return res, nil
}

// heal attempts the re-basing snapshot of a wedged entry once its backoff
// has passed, so a failing disk clears the wedge on a later update instead
// of rejecting until a manual snapshot, and reports whether the wedge
// cleared. A failed attempt doubles the backoff, up to healMaxBackoff.
// Caller holds ent.mu.
func (r *Registry) heal(ent *Entry) bool {
	if time.Now().Before(ent.wedgeNextTry) {
		return false
	}
	err := r.snapshotEntry(ent)
	if err != nil {
		ent.wedgeBackoff = min(2*ent.wedgeBackoff, healMaxBackoff)
		ent.wedgeNextTry = time.Now().Add(ent.wedgeBackoff)
	}
	ent.dmu.Lock()
	ent.dur.WedgeRetries++
	if err != nil {
		ent.dur.SnapshotErrors++
	} else {
		ent.dur.WedgeAutoHealed++
	}
	ent.dmu.Unlock()
	return err == nil
}

// Snapshot checkpoints the named dataset now: exports the engine state,
// writes it atomically, and lets the store restart the WAL after it. It also
// clears a wedged entry — the snapshot persists the engine state the failed
// append left unlogged, re-basing the log.
func (r *Registry) Snapshot(name string) (DurabilityStats, error) {
	ent, err := r.Get(name)
	if err != nil {
		return DurabilityStats{}, err
	}
	if r.st == nil {
		return DurabilityStats{}, ErrNotDurable
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.dropped {
		return DurabilityStats{}, fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	if err := r.snapshotEntry(ent); err != nil {
		ent.dmu.Lock()
		ent.dur.SnapshotErrors++
		ent.dmu.Unlock()
		return DurabilityStats{}, err
	}
	return ent.Durability(true), nil
}

// snapshotEntry exports and writes one snapshot. Caller holds ent.mu, so the
// exported state is exactly the state at ent.dur.LastSeq (no update can
// interleave).
func (r *Registry) snapshotEntry(ent *Entry) error {
	est := ent.Engine.ExportState()
	now := time.Now().UnixMilli()
	snap := &store.Snapshot{Seq: ent.dur.LastSeq, Epoch: est.Epoch, UnixMilli: now, Engine: est}
	if err := r.st.WriteSnapshot(ent.Name, snap); err != nil {
		return err
	}
	ent.wedged = nil
	ent.snapRetryAt = 0
	ent.wedgeBackoff = 0
	ent.wedgeNextTry = time.Time{}
	ent.dmu.Lock()
	ent.dur.Wedged = false
	ent.dur.SnapshotsWritten++
	ent.dur.OpsSinceSnapshot = 0
	ent.dur.BytesSinceSnapshot = 0
	ent.dur.LastSnapshotSeq = snap.Seq
	ent.dur.LastSnapshotEpoch = snap.Epoch
	ent.dur.LastSnapshotUnixMilli = now
	ent.dmu.Unlock()
	return nil
}
