// Package registry manages named serving engines, turning the single-dataset
// serving stack into a multi-tenant one: each named dataset owns its engine,
// updates route to the owning engine, and stats aggregate across the fleet.
// The registry is the front tier the HTTP server mounts dataset path
// segments on.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
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
	// ErrNotDurable reports a snapshot request against a registry without
	// a store (the in-memory default).
	ErrNotDurable = errors.New("registry: store is not durable")
	// ErrNotLogged reports an update the engine applied but the store failed
	// to log: it is live in memory, and the dataset is wedged.
	ErrNotLogged = errors.New("registry: update applied but not durably logged")
	// ErrWedged reports an update refused because an earlier one was not
	// logged; a successful snapshot clears it.
	ErrWedged = errors.New("registry: dataset rejects updates until a snapshot succeeds")
)

// Options configures the engine built for one dataset: the engine's own
// configuration, with its defaults.
type Options = engine.Config

// Entry is one registered dataset: the serving engine and the options it was
// built with. A created entry and one recovered from a durable store are
// alike: the engine serves its own record collection.
type Entry struct {
	Name   string
	Engine *engine.Engine
	Opts   Options

	// mu serializes a durable dataset's update path (apply + WAL append),
	// its snapshots and its drop; queries, and updates without a store,
	// never take it.
	mu sync.Mutex
	// dropped is set (under mu) once Drop removed the dataset: an update or
	// snapshot that looked the entry up before then must not reach the
	// store, where the name may already belong to a new dataset.
	dropped bool
	// wedged is non-nil after an append failure left the engine ahead of
	// the log (updates are rejected until a successful snapshot re-bases
	// it).
	wedged error
	// Auto-heal state for a wedged entry (guarded by mu, like wedged): the
	// update path retries the re-basing snapshot itself once wedgeNextTry
	// has passed, and a failed attempt doubles wedgeBackoff, up to
	// healMaxBackoff, before the next.
	wedgeBackoff time.Duration
	wedgeNextTry time.Time
	// snapRetryAt, after an automatic snapshot failed, is the
	// OpsSinceSnapshot count at which the next one is tried (guarded by mu;
	// 0 once a snapshot succeeds, when EveryOps alone decides).
	snapRetryAt int

	// dmu guards dur, the durability counters Durability returns, so stats
	// reads never queue behind an in-progress apply or snapshot. dur.LastSeq
	// is also the update path's sequence cursor: it changes only under mu
	// and dmu both, so a holder of mu reads it without dmu.
	dmu sync.Mutex
	dur DurabilityStats
}

// Dim returns the data dimensionality the entry's engine serves.
func (e *Entry) Dim() int { return e.Engine.Dim() }

// Len returns the entry's current live record count.
func (e *Entry) Len() int { return e.Engine.Stats().Live }

// Registry is a concurrent map of named serving engines over an optional
// durability store. The zero value is not usable; construct with New,
// NewWithStore, or Open.
type Registry struct {
	st  store.Store // nil for an in-memory registry
	pol SnapshotPolicy

	mu      sync.RWMutex
	entries map[string]*Entry
}

// New builds an empty in-memory registry: no store, no log, nothing
// survives the process.
func New() *Registry {
	return NewWithStore(nil, SnapshotPolicy{})
}

// NewWithStore builds an empty registry over the given store (nil means
// in-memory). Datasets created here are persisted through it; to also
// recover the datasets a store already holds, use Open instead.
func NewWithStore(st store.Store, pol SnapshotPolicy) *Registry {
	return &Registry{st: st, pol: pol.withDefaults(), entries: make(map[string]*Entry)}
}

// Durable reports whether the registry has a store, i.e. whether its
// datasets survive process exit.
func (r *Registry) Durable() bool { return r.st != nil }

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
// records (engine.CopyRecords' rules) and registers it under the name. The
// name must be free.
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
	eng, err := engine.New(records, opts)
	if err != nil {
		return nil, err
	}

	// Persist before claiming: the store's manifest commit is the one
	// authority on existence, so a create racing a crash (or another
	// creator) can never leave a dataset the manifest and the registry
	// disagree about. The staged artifact includes an initial snapshot,
	// making the dataset recoverable from the instant it exists. Without a
	// store, the claim below is the only authority.
	ent := &Entry{Name: name, Engine: eng, Opts: opts}
	if r.st != nil {
		est := eng.ExportState()
		now := time.Now().UnixMilli()
		snap := &store.Snapshot{Seq: 0, Epoch: est.Epoch, UnixMilli: now, Engine: est}
		if err := r.st.CreateDataset(store.DatasetConfig{Name: name, Dim: eng.Dim(), Config: opts}, snap); err != nil {
			if errors.Is(err, store.ErrExists) {
				return nil, fmt.Errorf("%w: %s", ErrExists, name)
			}
			return nil, err
		}
		ent.dur.SnapshotsWritten = 1
		ent.dur.LastSnapshotEpoch = snap.Epoch
		ent.dur.LastSnapshotUnixMilli = now
	}
	r.mu.Lock()
	if _, taken := r.entries[name]; taken {
		r.mu.Unlock()
		// Without a store, this is how a losing concurrent creator learns it
		// lost. With one it is defensive: the store accepted the create, so
		// no other creator can have committed this name; undo the staging
		// all the same.
		if r.st != nil {
			r.st.DropDataset(name)
		}
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
// dataset. A durable update or snapshot in flight finishes first; one that
// looked the entry up earlier and comes after fails with ErrUnknownDataset.
// In-flight queries against the engine complete; it is garbage once they do.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	ent, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	delete(r.entries, name)
	r.mu.Unlock()
	if r.st == nil {
		return nil
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	ent.dropped = true
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
	PerDataset           map[string]engine.Stats
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
		Durable:              r.Durable(),
		PerDataset:           make(map[string]engine.Stats, len(ents)),
		PerDatasetDurability: make(map[string]DurabilityStats, len(ents)),
	}
	for _, ent := range ents {
		agg.PerDataset[ent.Name] = ent.Engine.Stats()
		ds := ent.Durability(r.Durable())
		agg.WALAppends += ds.WALAppends
		agg.WALBytes += ds.WALBytes
		agg.SnapshotsWritten += ds.SnapshotsWritten
		agg.ReplayedOps += ds.ReplayedOps
		agg.PerDatasetDurability[ent.Name] = ds
	}
	return agg
}
