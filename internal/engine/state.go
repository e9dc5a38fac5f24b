package engine

import (
	"errors"

	"repro/internal/exec"
	"repro/internal/shard"
	"repro/internal/skyband"
)

// State is a deep, serializable snapshot of an engine's mutable dataset
// state: everything recovery needs to resume serving and applying updates
// with behavior identical to the original engine. Caches, in-flight queries,
// and query counters are deliberately excluded — they are performance state,
// recomputed from scratch by a restored engine.
type State struct {
	// Dim is the data dimensionality.
	Dim int
	// Epoch is the index version at capture; Batches the number of applied
	// update batches.
	Epoch   uint64
	Batches uint64
	// Exactly one of Dyn and Parts is set, matching the band maintainer. Dyn
	// is the single dynamic skyband's state: live records, band with exact
	// dominator counts, and the id allocator. Parts is the
	// partitioned band's: one such state per part plus the id routing.
	Dyn   *skyband.DynamicState
	Parts *shard.State
}

// ExportState captures the engine's dataset state. It serializes against
// updates (holding the update mutex while the band maintainer is walked, so
// no batch can land between two parts' exports), and the returned state is a
// consistent post-batch snapshot; queries are not blocked. Record slices in
// the state are shared with the engine and must not be mutated.
func (e *Engine) ExportState() *State {
	e.updMu.Lock()
	st := &State{
		Dim: e.dim,
		// The reserved epoch, not the published one: with a pipelined batch
		// between begin and commit, the band maintainer already holds the
		// post-batch state and the snapshot must carry that state's epoch.
		// The two coincide whenever no batch is in flight.
		Epoch: e.reservedEpoch,
	}
	switch b := e.band.(type) {
	case *skyband.Dynamic:
		st.Dyn = b.State()
	case *shard.Band:
		st.Parts = b.State()
	}
	e.updMu.Unlock()
	e.mu.Lock()
	st.Batches = e.stats.UpdateBatches
	e.mu.Unlock()
	return st
}

// Restore rebuilds an engine from a captured state: queries run over the
// saved skyband superset (snapshotted into the index) and updates over the
// restored band maintainer, so recovery costs one fence pass over the live
// records (skyband.RestoreDynamic) instead of New's recomputation of the
// band. cfg.MaxK must match the depth the state was maintained at.
func Restore(st *State, cfg Config) (*Engine, error) {
	if st == nil || (st.Dyn == nil) == (st.Parts == nil) {
		return nil, errors.New("engine: state must carry exactly one of a single or a partitioned band")
	}
	if st.Dim <= 0 {
		return nil, errors.New("engine: invalid dimensionality in state")
	}
	k := 0
	if st.Dyn != nil {
		k = st.Dyn.K
	} else if len(st.Parts.Parts) > 0 && st.Parts.Parts[0] != nil {
		k = st.Parts.Parts[0].K
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = k
	}
	if cfg.MaxK != k {
		return nil, errors.New("engine: config MaxK does not match state band depth")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var b band
	if st.Dyn != nil {
		dyn, err := skyband.RestoreDynamic(st.Dyn)
		if err != nil {
			return nil, err
		}
		b = dyn
	} else {
		parts, err := shard.Restore(st.Parts)
		if err != nil {
			return nil, err
		}
		b = parts
	}
	return newEngine(cfg, exec.NewPool(cfg.Workers, cfg.MaxQueued), b, st.Dim, st.Epoch, st.Batches), nil
}
