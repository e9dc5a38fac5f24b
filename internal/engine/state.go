package engine

import (
	"errors"

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
	// Dyn is the band's state: live records, band with exact dominator
	// counts, and the id allocator.
	Dyn *skyband.DynamicState
}

// ExportState captures the engine's dataset state. It serializes against
// updates (holding the update mutex while the band is walked), so it waits
// for a batch in flight to commit and the returned state is a consistent
// post-batch snapshot carrying the published epoch; queries are not blocked.
// Record slices in the state are shared with the engine and must not be
// mutated.
func (e *Engine) ExportState() *State {
	e.updMu.Lock()
	st := &State{Dim: e.dim, Epoch: e.Epoch(), Dyn: e.band.State()}
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
	if st == nil || st.Dyn == nil {
		return nil, errors.New("engine: state carries no band")
	}
	if st.Dim <= 0 {
		return nil, errors.New("engine: invalid dimensionality in state")
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = st.Dyn.K
	}
	if cfg.MaxK != st.Dyn.K {
		return nil, errors.New("engine: config MaxK does not match state band depth")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	dyn, err := skyband.RestoreDynamic(st.Dyn)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, dyn, st.Dim, st.Epoch, st.Batches), nil
}
