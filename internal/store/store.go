// Package store is the durability layer behind the serving stack: a
// pluggable home for every piece of mutable dataset state the process must
// not lose. Three artifacts cover it all:
//
//   - a write-ahead log of applied update batches (the engine's UpdateOp
//     stream is already batch-atomic and epoch-stamped, so the batch is the
//     natural WAL record),
//   - periodic snapshots of the full dataset state (the live records, in the
//     band pass's order, with the id allocator, epoch and counters —
//     everything engine.State captures; no band, which a restore builds
//     from the records), and
//   - a manifest of the named datasets with their configurations.
//
// Recovery is snapshot + tail: restore the last snapshot and replay the WAL
// batches after its sequence number through the ordinary ApplyBatch
// machinery. Replay is also how a recovered dataset's log opens: one walk
// hands over the tail, repairs a torn end, and leaves the log ready for the
// next append — re-based after the snapshot when it ended before it. Replay
// is exact — update application is deterministic (ids are assigned
// sequentially, skyband maintenance decides membership by exact dominator
// counts, and epoch advancement is a function of state and ops alone) — so a
// recovered engine answers bit-identically to one that never crashed.
//
// This package is the only one that knows an older format. DecodeSnapshot
// hands out an engine.State in today's shape whatever wrote the bytes (a v1
// snapshot with its band, the shadow-banded structure, a partitioned
// engine), and Replay applies the
// epoch rule of every frame version itself, so its caller applies batches
// and restores at the epoch Replay returns, nothing more.
//
// One implementation ships: File (an append-only WAL of CRC-framed records
// that every snapshot restarts, so it holds the batches since the last one;
// atomic snapshot rename; configurable fsync policy). A registry without a
// store is in-memory: it logs nothing and recovers nothing.
package store

import (
	"errors"
	"fmt"

	"repro/internal/engine"
)

// Errors returned by Store implementations.
var (
	// ErrUnknownDataset reports an operation against a dataset name the
	// store has no manifest entry for.
	ErrUnknownDataset = errors.New("store: unknown dataset")
	// ErrExists reports a CreateDataset for a name already in the manifest.
	ErrExists = errors.New("store: dataset already exists")
	// ErrSeqGap reports an Append whose sequence number is not exactly one
	// past the last appended batch — the caller-side ordering invariant that
	// makes replay a pure prefix.
	ErrSeqGap = errors.New("store: batch sequence gap")
	// ErrNoSnapshot reports a LoadSnapshot for a dataset that has none.
	ErrNoSnapshot = errors.New("store: no snapshot")
	// ErrCorrupt reports an unreadable snapshot or manifest (torn WAL tails
	// are not corruption: they are truncated silently on open, by design).
	ErrCorrupt = errors.New("store: corrupt data")
)

// Batch is one WAL record: an update batch the engine applies, in
// application order. Seq numbers start at 1 and are contiguous per
// dataset. Epoch is a replay integrity check, and Version says which epoch it
// is: a v2 frame logs the version of the engine's index the batch applies on,
// so it can be written while the engine applies the batch; a v1 frame, the
// older format, logged the version right after the batch applied. Append
// writes Version as given, zero as BatchV2; a decoded batch carries the
// version of its frame. Replay checks both (see Store.Replay).
type Batch struct {
	Version int
	Seq     uint64
	Epoch   uint64
	Ops     []engine.UpdateOp
}

// Batch frame versions (see Batch).
const (
	BatchV1 = 1 // Epoch is the epoch after the batch
	BatchV2 = 2 // Epoch is the epoch the batch applies on
)

// Snapshot is one full-state checkpoint of a dataset: everything recovery
// needs up to and including batch Seq.
type Snapshot struct {
	// Seq is the last applied batch covered by this snapshot (0 for the
	// initial snapshot written at dataset creation); Epoch the index version
	// at that point; UnixMilli the wall-clock capture time.
	Seq       uint64
	Epoch     uint64
	UnixMilli int64
	Engine    *engine.State
}

// DatasetConfig is one manifest entry: a dataset's name, its
// dimensionality and the engine configuration needed to rebuild its serving
// engine at reopen (embedded, so the manifest's keys are engine.Config's).
// Shards is the store's own legacy field: a dataset a partitioned engine
// wrote keeps its count, which tells Replay that the log's v1 frames may run
// ahead of one band's epochs; no new dataset sets it.
type DatasetConfig struct {
	Name   string `json:"name"`
	Dim    int    `json:"dim"`
	Shards int    `json:"shards,omitempty"`
	engine.Config
}

// Manifest lists the datasets the store holds.
type Manifest struct {
	Datasets []DatasetConfig `json:"datasets"`
}

// Store persists dataset state. Implementations must be safe for concurrent
// use across datasets; per-dataset calls (Append, WriteSnapshot, Replay) are
// serialized by the registry and need only be safe against concurrent calls
// for other datasets.
type Store interface {
	// LoadManifest returns the datasets the store holds. A fresh store
	// returns an empty manifest.
	LoadManifest() (*Manifest, error)

	// CreateDataset registers a dataset with its initial snapshot (required),
	// becoming visible in the manifest only when both are durably staged — a
	// crash at any point leaves either no trace or a fully recoverable
	// dataset, never a phantom.
	CreateDataset(cfg DatasetConfig, snap *Snapshot) error

	// DropDataset removes a dataset. The manifest entry goes first (the
	// commit point), then the data; a crash in between leaves an orphan that
	// the next open sweeps away, never an undeletable or phantom entry.
	DropDataset(name string) error

	// Append durably logs one applied batch and returns the bytes written.
	// b.Seq must be exactly one past the last logged batch (ErrSeqGap
	// otherwise). The batch's Ops and Records are not retained. The dataset
	// must be open in this process: created by it, or replayed since the
	// store was opened.
	Append(name string, b *Batch) (int64, error)

	// WriteSnapshot atomically replaces the dataset's snapshot, which must be
	// open like Append's. When nothing is logged past snap.Seq the log
	// restarts empty after it, and the next append is snap.Seq+1 (even if
	// the log was behind); a snapshot behind the log leaves the log as it is.
	WriteSnapshot(name string, snap *Snapshot) error

	// LoadSnapshot returns the dataset's latest snapshot.
	LoadSnapshot(name string) (*Snapshot, error)

	// Replay opens the dataset's log, closing any handle already open, and
	// hands apply, in order, every logged batch with Seq > afterSeq, with
	// the bytes its frame takes in the log (what Append returned for it);
	// apply applies it and returns the epoch the engine reached. afterSeq
	// and epoch are the Seq and the engine epoch of the dataset's snapshot:
	// a torn trailing batch (crash mid-append) is dropped atomically and
	// never surfaces, log behind afterSeq may be discarded, and a log that
	// ends before afterSeq restarts after it, so the next append is
	// afterSeq+1 or one past the last batch apply saw.
	//
	// Replay checks each batch against the log: the first has Seq
	// afterSeq+1; a v2 frame's epoch is the engine's before its batch, a v1
	// frame's the engine's after it. A partitioned engine's log (a manifest
	// Shards above 1) may log a v1 epoch ahead of the engine's, since such
	// an engine advanced its epoch at least as often as one band does; the
	// lead carries over to the frames after it. Replay returns the epoch
	// recovery must serve at — the engine's plus that lead, so an epoch a
	// client was told never runs backwards. It stops on an apply error or a
	// failed check (ErrCorrupt) and leaves the dataset unopened.
	Replay(name string, afterSeq, epoch uint64, apply func(b *Batch, size int64) (uint64, error)) (uint64, error)

	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// SyncPolicy selects when the file store fsyncs WAL appends.
type SyncPolicy int

const (
	// SyncAlways fsyncs every appended batch before acknowledging it: an
	// acknowledged update survives kill -9 and power loss.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: acknowledged updates survive
	// process crashes (the write hit the page cache) but may be lost on
	// power failure. Replay still recovers a clean prefix either way.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want always or never)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncNever {
		return "never"
	}
	return "always"
}
