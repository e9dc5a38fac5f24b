// Package registry manages named serving engines, turning the single-dataset
// serving stack into a multi-tenant one: each named dataset owns its engine
// (single-partition or sharded), updates route to the owning engine, and
// stats aggregate across the fleet. The registry is the front tier the HTTP
// server mounts dataset path segments on.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	utk "repro"
	"repro/internal/store"
)

// Errors returned by registry operations.
var (
	// ErrUnknownDataset reports a name with no registered engine.
	ErrUnknownDataset = errors.New("registry: unknown dataset")
	// ErrExists reports a Create for a name already registered.
	ErrExists = errors.New("registry: dataset already exists")
	// ErrBadName reports an unusable dataset name.
	ErrBadName = errors.New("registry: bad dataset name")
	// ErrNotDurable reports a snapshot request against a registry whose
	// store does not persist (the in-memory default).
	ErrNotDurable = errors.New("registry: store is not durable")
)

// Options configures the engine built for one dataset.
type Options struct {
	// Shards above 1 builds a sharded engine with that many horizontal
	// partitions; 0 or 1 builds a single-partition engine.
	Shards int
	// MaxK is the largest top-k depth served (required, positive).
	MaxK int
	// CacheEntries, Workers, MaxQueued, and QueryTimeout forward to
	// utk.EngineConfig with its defaults.
	CacheEntries int
	Workers      int
	MaxQueued    int
	QueryTimeout time.Duration
}

// Entry is one registered dataset: the serving engine and the options it was
// built with. A created entry and one recovered from a durable store are
// alike: the engine serves its own record collection.
type Entry struct {
	Name   string
	Engine *utk.Engine
	Opts   Options

	// mu serializes the durable update path (apply + WAL append) and
	// snapshots for this dataset; queries never take it.
	mu sync.Mutex
	// seq is the sequence number of the last batch durably logged; wedged
	// is non-nil after an append failure left the engine ahead of the log
	// (updates are rejected until a successful snapshot re-bases it).
	seq    uint64
	wedged error
	// Auto-heal state for a wedged entry (guarded by mu, like wedged): the
	// update path retries the re-basing snapshot itself with exponential
	// backoff, up to healMaxRetries attempts, so a transient disk error
	// clears without an operator. wedgeNextTry gates the next attempt;
	// wedgeRetries counts failed attempts since the wedge. When the budget
	// is exhausted, wedgeRearmAt is the calm-interval deadline after which
	// the budget re-arms (a disk that recovers minutes later still heals
	// without a manual snapshot).
	wedgeRetries int
	wedgeBackoff time.Duration
	wedgeNextTry time.Time
	wedgeRearmAt time.Time

	// dmu guards the durability counters below, so stats reads never queue
	// behind an in-progress apply or snapshot.
	dmu               sync.Mutex
	wedgedFlag        bool
	lastSeq           uint64
	walAppends        uint64
	walBytes          uint64
	snapshotsWritten  uint64
	snapshotErrors    uint64
	wedgeRetryCount   uint64
	wedgeAutoHealed   uint64
	replayedBatches   uint64
	replayedOps       uint64
	recoveryMillis    int64
	lastSnapSeq       uint64
	lastSnapEpoch     uint64
	lastSnapUnixMilli int64
	opsSinceSnap      int
	bytesSinceSnap    int64
}

// Dim returns the data dimensionality the entry's engine serves.
func (e *Entry) Dim() int { return e.Engine.Dim() }

// Len returns the entry's current live record count.
func (e *Entry) Len() int { return e.Engine.Stats().Live }

// Registry is a concurrent map of named serving engines over a pluggable
// durability store. The zero value is not usable; construct with New,
// NewWithStore, or Open.
type Registry struct {
	st  store.Store
	pol SnapshotPolicy

	mu      sync.RWMutex
	entries map[string]*Entry
}

// New builds an empty registry over an in-memory store: exactly the
// pre-durability behavior.
func New() *Registry {
	return NewWithStore(store.NewMem(), SnapshotPolicy{})
}

// NewWithStore builds an empty registry over the given store. Datasets
// created here are persisted through it; to also recover the datasets a
// durable store already holds, use Open instead.
func NewWithStore(st store.Store, pol SnapshotPolicy) *Registry {
	return &Registry{st: st, pol: pol.withDefaults(), entries: make(map[string]*Entry)}
}

// Durable reports whether the registry's store survives process exit.
func (r *Registry) Durable() bool { return r.st.Durable() }

// ValidateName reports whether a dataset name is usable: non-empty, at most
// 128 bytes, and built from letters, digits, '.', '_', and '-' only (names
// appear as URL path segments).
func ValidateName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("%w: must be 1-128 characters", ErrBadName)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return fmt.Errorf("%w: %q contains %q (allowed: letters, digits, '.', '_', '-')", ErrBadName, name, c)
		}
	}
	return nil
}

// Create builds the engine described by opts over a validated copy of the
// records and registers it under the name. The name must be free.
func (r *Registry) Create(name string, records [][]float64, opts Options) (*Entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	// The expensive build runs outside the lock; only the final claim is
	// serialized (losing a create race returns ErrExists, like a file
	// system's O_EXCL).
	r.mu.RLock()
	_, taken := r.entries[name]
	r.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	eng, err := utk.NewEngine(records, max(opts.Shards, 1), utk.EngineConfig{
		MaxK:         opts.MaxK,
		CacheEntries: opts.CacheEntries,
		Workers:      opts.Workers,
		MaxQueued:    opts.MaxQueued,
		QueryTimeout: opts.QueryTimeout,
	})
	if err != nil {
		return nil, err
	}

	// Persist before claiming: the store's manifest commit is the one
	// authority on existence, so a create racing a crash (or another
	// creator) can never leave a dataset the manifest and the registry
	// disagree about. For durable stores the staged artifact includes an
	// initial snapshot, making the dataset recoverable from the instant it
	// exists.
	var snap *store.Snapshot
	now := time.Now().UnixMilli()
	if r.st.Durable() {
		est := eng.State()
		snap = &store.Snapshot{Seq: 0, Epoch: est.Epoch, UnixMilli: now, Engine: est}
	}
	if err := r.st.CreateDataset(datasetConfig(name, eng.Dim(), opts), snap); err != nil {
		if errors.Is(err, store.ErrExists) {
			return nil, fmt.Errorf("%w: %s", ErrExists, name)
		}
		return nil, err
	}

	ent := &Entry{Name: name, Engine: eng, Opts: opts}
	if snap != nil {
		ent.snapshotsWritten = 1
		ent.lastSnapEpoch = snap.Epoch
		ent.lastSnapUnixMilli = now
	}
	r.mu.Lock()
	if _, taken := r.entries[name]; taken {
		r.mu.Unlock()
		// Defensive: the store accepted the create, so no other creator can
		// have committed this name; undo the staging all the same.
		r.st.DropDataset(name)
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	r.entries[name] = ent
	r.mu.Unlock()
	return ent, nil
}

// Get returns the entry registered under the name.
func (r *Registry) Get(name string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ent, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	return ent, nil
}

// Drop unregisters the named engine and removes its persisted state. The
// store's manifest entry goes before the data files, so a crash mid-drop
// leaves an orphan directory (swept at the next open), never a phantom
// dataset. In-flight queries against the engine complete; it is garbage once
// they do.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	if _, ok := r.entries[name]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	delete(r.entries, name)
	r.mu.Unlock()
	if err := r.st.DropDataset(name); err != nil && !errors.Is(err, store.ErrUnknownDataset) {
		return err
	}
	return nil
}

// Names lists the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len is the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Sole returns the single registered entry when exactly one dataset exists —
// the resolution rule behind dataset-less legacy request paths.
func (r *Registry) Sole() (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.entries) != 1 {
		return nil, fmt.Errorf("%w: %d datasets registered, name one explicitly", ErrUnknownDataset, len(r.entries))
	}
	for _, ent := range r.entries {
		return ent, nil
	}
	panic("unreachable")
}

// AggregateStats is the fleet view: every engine's own snapshot keyed by
// dataset name, and the durability counters per dataset and summed. (Sums of
// the serving counters are the reader's to take over PerDataset; the HTTP
// layer's stats table says which ones add up.)
type AggregateStats struct {
	// Durable reports the store kind; WALAppends, WALBytes,
	// SnapshotsWritten, and ReplayedOps sum the fleet's durability
	// counters.
	Durable          bool
	WALAppends       uint64
	WALBytes         uint64
	SnapshotsWritten uint64
	ReplayedOps      uint64
	// PerDataset holds each engine's own snapshot, keyed by name;
	// PerDatasetDurability the per-dataset durability counters.
	PerDataset           map[string]utk.EngineStats
	PerDatasetDurability map[string]DurabilityStats
}

// Stats snapshots every engine and the fleet's durability counters.
func (r *Registry) Stats() AggregateStats {
	r.mu.RLock()
	ents := make([]*Entry, 0, len(r.entries))
	for _, ent := range r.entries {
		ents = append(ents, ent)
	}
	r.mu.RUnlock()

	agg := AggregateStats{
		Durable:              r.st.Durable(),
		PerDataset:           make(map[string]utk.EngineStats, len(ents)),
		PerDatasetDurability: make(map[string]DurabilityStats, len(ents)),
	}
	for _, ent := range ents {
		agg.PerDataset[ent.Name] = ent.Engine.Stats()
		ds := ent.Durability(r.st.Durable())
		agg.WALAppends += ds.WALAppends
		agg.WALBytes += ds.WALBytes
		agg.SnapshotsWritten += ds.SnapshotsWritten
		agg.ReplayedOps += ds.ReplayedOps
		agg.PerDatasetDurability[ent.Name] = ds
	}
	return agg
}
