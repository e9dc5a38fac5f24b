package registry

import (
	"fmt"
	"time"

	utk "repro"
	"repro/internal/store"
)

// SnapshotPolicy schedules automatic snapshots per dataset: a snapshot is
// taken after a durable update once either threshold is crossed. Snapshots
// bound recovery cost (replay starts at the last snapshot) and let the store
// prune the WAL behind them.
type SnapshotPolicy struct {
	// EveryOps snapshots after this many logged update ops (zero selects
	// DefaultSnapshotEveryOps; negative disables the ops threshold).
	EveryOps int
	// EveryBytes snapshots after this many logged WAL bytes (zero selects
	// DefaultSnapshotEveryBytes; negative disables the bytes threshold).
	EveryBytes int64
}

// Default snapshot thresholds.
const (
	DefaultSnapshotEveryOps   = 4096
	DefaultSnapshotEveryBytes = 64 << 20
)

// Wedge auto-heal schedule: after an append failure wedges an entry, the
// update path itself retries the re-basing snapshot with exponential backoff
// — a transient disk error clears without an operator, while a persistent
// one stops being retried after healMaxRetries attempts. Exhausting the
// budget is not permanent: after a calm interval (healRearmAfter) the budget
// re-arms and a new backoff cycle begins, so a disk that recovers minutes
// later still heals on the next update. A manual Snapshot clears the wedge
// (and every retry clock) at any time; the wedge never silently unwedges
// without a durable snapshot succeeding.
const (
	healInitialBackoff = 100 * time.Millisecond
	healMaxBackoff     = 5 * time.Second
	healMaxRetries     = 8
	healRearmAfter     = 30 * time.Second
)

func (p SnapshotPolicy) withDefaults() SnapshotPolicy {
	if p.EveryOps == 0 {
		p.EveryOps = DefaultSnapshotEveryOps
	}
	if p.EveryBytes == 0 {
		p.EveryBytes = DefaultSnapshotEveryBytes
	}
	return p
}

// due reports whether the accumulated ops/bytes since the last snapshot
// cross a threshold.
func (p SnapshotPolicy) due(ops int, bytes int64) bool {
	return (p.EveryOps > 0 && ops >= p.EveryOps) || (p.EveryBytes > 0 && bytes >= p.EveryBytes)
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
	defer e.dmu.Unlock()
	return DurabilityStats{
		Durable:               durable,
		LastSeq:               e.lastSeq,
		Wedged:                e.wedgedFlag,
		WALAppends:            e.walAppends,
		WALBytes:              e.walBytes,
		SnapshotsWritten:      e.snapshotsWritten,
		SnapshotErrors:        e.snapshotErrors,
		WedgeRetries:          e.wedgeRetryCount,
		WedgeAutoHealed:       e.wedgeAutoHealed,
		ReplayedBatches:       e.replayedBatches,
		ReplayedOps:           e.replayedOps,
		RecoveryMillis:        e.recoveryMillis,
		LastSnapshotSeq:       e.lastSnapSeq,
		LastSnapshotEpoch:     e.lastSnapEpoch,
		LastSnapshotUnixMilli: e.lastSnapUnixMilli,
		OpsSinceSnapshot:      e.opsSinceSnap,
		BytesSinceSnapshot:    e.bytesSinceSnap,
	}
}

// Open recovers every dataset a durable store's manifest lists: restore the
// last snapshot, then replay the WAL tail through the ordinary ApplyBatch
// machinery — O(snapshot + tail) instead of a full rebuild. Each replayed
// batch must reproduce the epoch it was logged with; a mismatch aborts the
// open (it would mean replay diverged from the original application, which
// the determinism of update application rules out for intact data). The one
// tolerated difference is a directory written by a partitioned engine (its
// manifest carries the legacy Shards count): its log advanced the epoch
// whenever a batch changed any partition's band, at least as often as one
// band over the same records does, so replay through one band may trail such
// a log (and is re-seeded from it afterwards).
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

// reopen recovers one dataset from its snapshot plus WAL tail.
func (r *Registry) reopen(cfg store.DatasetConfig) (*Entry, error) {
	start := time.Now()
	snap, err := r.st.LoadSnapshot(cfg.Name)
	if err != nil {
		return nil, err
	}
	ecfg := utk.EngineConfig{
		MaxK:         cfg.MaxK,
		CacheEntries: cfg.CacheEntries,
		Workers:      cfg.Workers,
		MaxQueued:    cfg.MaxQueued,
		QueryTimeout: cfg.QueryTimeout,
	}
	eng, err := utk.RestoreEngine(snap.Engine, ecfg)
	if err != nil {
		return nil, err
	}
	seq := snap.Seq
	var batches, ops, logged uint64
	err = r.st.Replay(cfg.Name, snap.Seq, func(b *store.Batch) error {
		if b.Seq != seq+1 {
			return fmt.Errorf("replay gap: batch %d after %d", b.Seq, seq)
		}
		res, err := eng.ApplyBatch(b.Ops)
		if err != nil {
			return fmt.Errorf("replay batch %d: %w", b.Seq, err)
		}
		if res.Epoch != b.Epoch && !(cfg.Shards > 1 && res.Epoch < b.Epoch) {
			return fmt.Errorf("replay batch %d: epoch %d, logged %d", b.Seq, res.Epoch, b.Epoch)
		}
		seq, logged = b.Seq, b.Epoch
		batches++
		ops += uint64(len(b.Ops))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if logged > eng.Stats().Epoch {
		// Replay trailed a partitioned engine's log: re-seed the publish
		// counter from the last logged value, so the epoch clients were told
		// never runs backwards across the upgrade.
		st := eng.State()
		st.Epoch = logged
		if eng, err = utk.RestoreEngine(st, ecfg); err != nil {
			return nil, err
		}
	}
	ent := &Entry{
		Name:   cfg.Name,
		Engine: eng,
		Opts: Options{
			MaxK:         cfg.MaxK,
			CacheEntries: cfg.CacheEntries,
			Workers:      cfg.Workers,
			MaxQueued:    cfg.MaxQueued,
			QueryTimeout: cfg.QueryTimeout,
		},
		seq: seq,
	}
	ent.lastSeq = seq
	ent.replayedBatches = batches
	ent.replayedOps = ops
	ent.recoveryMillis = time.Since(start).Milliseconds()
	ent.lastSnapSeq = snap.Seq
	ent.lastSnapEpoch = snap.Epoch
	ent.lastSnapUnixMilli = snap.UnixMilli
	// Under SyncNever a crash can lose WAL frames behind the (fsynced)
	// snapshot, leaving the log's append cursor before the recovered state.
	// Re-base by snapshotting now, so the next update's sequence lines up.
	walSeq, err := r.st.LastSeq(cfg.Name)
	if err != nil {
		return nil, err
	}
	if walSeq < seq {
		ent.mu.Lock()
		err = r.snapshotEntry(ent)
		ent.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("re-base log behind snapshot: %w", err)
		}
	}
	return ent, nil
}

// Update routes a batch to the named dataset's engine and durably logs it
// before acknowledging: apply, then append to the WAL under the entry's
// update mutex. An acknowledged update therefore survives any crash; an
// update whose append fails is NOT acknowledged — the entry wedges (further
// updates rejected) until a successful snapshot re-bases the log on the
// engine's state, because the engine is ahead of the WAL and appending later
// batches would persist a stream with a hole.
func (r *Registry) Update(name string, ops []utk.UpdateOp) (*utk.UpdateResult, error) {
	ent, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	ent.mu.Lock()
	if ent.wedged != nil {
		// Bounded auto-heal: attempt the re-basing snapshot here, behind the
		// backoff gate, so a transiently failing disk clears the wedge on a
		// later update instead of rejecting forever until a manual snapshot.
		// An exhausted retry budget re-arms after the calm interval stamped
		// when the last budgeted attempt failed.
		if ent.wedgeRetries >= healMaxRetries && !ent.wedgeRearmAt.IsZero() && !time.Now().Before(ent.wedgeRearmAt) {
			ent.wedgeRetries = 0
			ent.wedgeBackoff = healInitialBackoff
			ent.wedgeNextTry = time.Time{}
			ent.wedgeRearmAt = time.Time{}
		}
		healed := false
		if r.st.Durable() && ent.wedgeRetries < healMaxRetries && !time.Now().Before(ent.wedgeNextTry) {
			ent.dmu.Lock()
			ent.wedgeRetryCount++
			ent.dmu.Unlock()
			if serr := r.snapshotEntry(ent); serr != nil {
				ent.wedgeRetries++
				ent.wedgeBackoff *= 2
				if ent.wedgeBackoff > healMaxBackoff {
					ent.wedgeBackoff = healMaxBackoff
				}
				ent.wedgeNextTry = time.Now().Add(ent.wedgeBackoff)
				if ent.wedgeRetries >= healMaxRetries {
					// Budget exhausted: stamp the calm interval after which a
					// fresh backoff cycle may begin.
					ent.wedgeRearmAt = time.Now().Add(healRearmAfter)
				}
				ent.dmu.Lock()
				ent.snapshotErrors++
				ent.dmu.Unlock()
			} else {
				healed = true
				ent.dmu.Lock()
				ent.wedgeAutoHealed++
				ent.dmu.Unlock()
			}
		}
		if !healed {
			err := fmt.Errorf("registry: %s rejects updates until a snapshot succeeds (unlogged batch: %w)", name, ent.wedged)
			ent.mu.Unlock()
			return nil, err
		}
	}
	// Pipelined apply: stage one runs band maintenance and fixes the batch's
	// result (ids, epoch) under the engine's update mutex; the WAL append —
	// fsync included — then overlaps the engine's commit stage (invalidation
	// probes + index publish) instead of serializing behind it. The logged
	// epoch is the one commit publishes, so sequential replay through
	// ApplyBatch reproduces it exactly. Both stages finish before the update
	// is acknowledged (or its failure reported), preserving read-your-writes
	// and the durability contract.
	res, commit, err := ent.Engine.ApplyBatchPipelined(ops)
	if err != nil {
		ent.mu.Unlock()
		return nil, err
	}
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		commit()
	}()
	seq := ent.seq + 1
	nbytes, err := r.st.Append(name, &store.Batch{Seq: seq, Epoch: res.Epoch, Ops: ops})
	<-committed
	if err != nil {
		ent.wedged = err
		ent.wedgeRetries = 0
		ent.wedgeBackoff = healInitialBackoff
		ent.wedgeNextTry = time.Now().Add(healInitialBackoff)
		ent.dmu.Lock()
		ent.wedgedFlag = true
		ent.dmu.Unlock()
		ent.mu.Unlock()
		return nil, fmt.Errorf("registry: %s: update applied but not durably logged: %w", name, err)
	}
	ent.seq = seq
	ent.dmu.Lock()
	ent.lastSeq = seq
	ent.walAppends++
	ent.walBytes += uint64(nbytes)
	ent.opsSinceSnap += len(ops)
	ent.bytesSinceSnap += nbytes
	due := r.st.Durable() && r.pol.due(ent.opsSinceSnap, ent.bytesSinceSnap)
	ent.dmu.Unlock()
	if due {
		// Auto-snapshot failures don't fail the update (it is already
		// durable in the WAL); they are counted and retried at the next
		// threshold crossing.
		if serr := r.snapshotEntry(ent); serr != nil {
			ent.dmu.Lock()
			ent.snapshotErrors++
			ent.opsSinceSnap = 0 // re-arm the threshold rather than retrying every batch
			ent.bytesSinceSnap = 0
			ent.dmu.Unlock()
		}
	}
	ent.mu.Unlock()
	return res, nil
}

// Snapshot checkpoints the named dataset now: exports the engine state,
// writes it atomically, and lets the store prune the WAL behind it. It also
// clears a wedged entry — the snapshot persists the engine state the failed
// append left unlogged, re-basing the log.
func (r *Registry) Snapshot(name string) (DurabilityStats, error) {
	ent, err := r.Get(name)
	if err != nil {
		return DurabilityStats{}, err
	}
	if !r.st.Durable() {
		return DurabilityStats{}, ErrNotDurable
	}
	ent.mu.Lock()
	err = r.snapshotEntry(ent)
	ent.mu.Unlock()
	if err != nil {
		ent.dmu.Lock()
		ent.snapshotErrors++
		ent.dmu.Unlock()
		return DurabilityStats{}, err
	}
	return ent.Durability(true), nil
}

// snapshotEntry exports and writes one snapshot. Caller holds ent.mu, so the
// exported state is exactly the state at ent.seq (no update can interleave).
func (r *Registry) snapshotEntry(ent *Entry) error {
	est := ent.Engine.State()
	now := time.Now().UnixMilli()
	snap := &store.Snapshot{Seq: ent.seq, Epoch: est.Epoch, UnixMilli: now, Engine: est}
	if err := r.st.WriteSnapshot(ent.Name, snap); err != nil {
		return err
	}
	ent.wedged = nil
	ent.wedgeRetries = 0
	ent.wedgeBackoff = 0
	ent.wedgeNextTry = time.Time{}
	ent.wedgeRearmAt = time.Time{}
	ent.dmu.Lock()
	ent.wedgedFlag = false
	ent.snapshotsWritten++
	ent.opsSinceSnap = 0
	ent.bytesSinceSnap = 0
	ent.lastSnapSeq = snap.Seq
	ent.lastSnapEpoch = snap.Epoch
	ent.lastSnapUnixMilli = now
	ent.dmu.Unlock()
	return nil
}

// datasetConfig maps registry options onto a manifest entry.
func datasetConfig(name string, dim int, opts Options) store.DatasetConfig {
	return store.DatasetConfig{
		Name:         name,
		Dim:          dim,
		MaxK:         opts.MaxK,
		CacheEntries: opts.CacheEntries,
		Workers:      opts.Workers,
		MaxQueued:    opts.MaxQueued,
		QueryTimeout: opts.QueryTimeout,
	}
}
