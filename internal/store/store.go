// Package store is the durability layer behind the serving stack: a
// pluggable home for every piece of mutable dataset state the process must
// not lose. Three artifacts cover it all:
//
//   - a write-ahead log of applied update batches (the engine's UpdateOp
//     stream is already batch-atomic and epoch-stamped, so the batch is the
//     natural WAL record),
//   - periodic snapshots of the full dataset state (records plus the dynamic
//     skyband's band and dominator counts — everything engine.State
//     captures, single or partitioned), and
//   - a manifest of the named datasets with their configurations.
//
// Recovery is snapshot + tail: restore the last snapshot and replay the WAL
// batches after its sequence number through the ordinary ApplyBatch
// machinery. Replay is exact — update application is deterministic (ids are
// assigned sequentially, skyband maintenance decides membership by exact
// dominator counts, and epoch advancement is a function of state and ops
// alone) — so a recovered engine answers bit-identically to one that never
// crashed.
//
// Two implementations ship: Mem (process-local, today's behavior, the
// default) and File (segmented append-only WAL with CRC-framed records,
// atomic snapshot rename, configurable fsync policy).
package store

import (
	"errors"
	"fmt"
	"time"

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

// Batch is one WAL record: an update batch that was applied to the engine,
// in application order. Seq numbers start at 1 and are contiguous per
// dataset; Epoch is the engine's index version right after the batch applied
// and doubles as a replay integrity check (a replayed batch must reproduce
// it exactly).
type Batch struct {
	Seq   uint64
	Epoch uint64
	Ops   []engine.UpdateOp
}

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

// DatasetConfig is one manifest entry: a dataset's name and the
// configuration needed to rebuild its serving engine at reopen. ShadowDepth
// and Shards are legacy knobs of the retired shadow band and partitioned
// band: a manifest written before keeps them for its datasets, and no new
// dataset sets them. A legacy Shards above 1 tells replay that the dataset's
// log was written by a partitioned engine (see registry.Open).
type DatasetConfig struct {
	Name         string        `json:"name"`
	Dim          int           `json:"dim"`
	Shards       int           `json:"shards,omitempty"`
	MaxK         int           `json:"max_k"`
	ShadowDepth  int           `json:"shadow_depth,omitempty"`
	CacheEntries int           `json:"cache_entries,omitempty"`
	Workers      int           `json:"workers,omitempty"`
	MaxQueued    int           `json:"max_queued,omitempty"`
	QueryTimeout time.Duration `json:"query_timeout_ns,omitempty"`
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
	// Durable reports whether the store survives process exit. Callers skip
	// snapshot scheduling (and state export) for non-durable stores.
	Durable() bool

	// LoadManifest returns the datasets the store holds. A fresh store
	// returns an empty manifest.
	LoadManifest() (*Manifest, error)

	// CreateDataset registers a dataset with its initial snapshot, becoming
	// visible in the manifest only when both are durably staged — a crash at
	// any point leaves either no trace or a fully recoverable dataset, never
	// a phantom. snap may be nil for non-durable stores.
	CreateDataset(cfg DatasetConfig, snap *Snapshot) error

	// DropDataset removes a dataset. The manifest entry goes first (the
	// commit point), then the data; a crash in between leaves an orphan that
	// the next open sweeps away, never an undeletable or phantom entry.
	DropDataset(name string) error

	// Append durably logs one applied batch and returns the bytes written.
	// b.Seq must be exactly lastSeq+1 (ErrSeqGap otherwise). The batch's Ops
	// and Records are not retained.
	Append(name string, b *Batch) (int64, error)

	// WriteSnapshot atomically replaces the dataset's snapshot and prunes
	// WAL segments the snapshot fully covers.
	WriteSnapshot(name string, snap *Snapshot) error

	// LoadSnapshot returns the dataset's latest snapshot.
	LoadSnapshot(name string) (*Snapshot, error)

	// Replay invokes fn, in order, for every logged batch with Seq >
	// afterSeq. A torn trailing batch (crash mid-append) is dropped
	// atomically on open and never surfaces here. Replay stops on fn error.
	Replay(name string, afterSeq uint64, fn func(*Batch) error) error

	// LastSeq returns the sequence number of the last durably logged batch
	// (the snapshot's Seq when no batch has been appended past it).
	LastSeq(name string) (uint64, error)

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
