package engine

import (
	"errors"
	"fmt"

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
	// Dyn is the band's state: the live records, the id allocator and the
	// band's counters; the band itself is rebuilt from the records.
	Dyn *skyband.DynamicState
}

// ExportState captures the engine's dataset state. It serializes against
// updates (holding the update mutex while the live records are ranked), so
// it waits for a batch in flight to commit and the returned state is a
// consistent post-batch snapshot carrying the published epoch; queries are
// not blocked.
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

// Restore builds an engine from a captured state as New builds one from
// records: every live record must pass CheckRecord at the state's
// dimensionality, and the band and fence are built from the live records
// (skyband.RestoreDynamic), which the state lists strongest first so the
// build needs no sort; no band is read from the state. cfg.MaxK must match
// the depth the state was maintained at.
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
	for i, rec := range st.Dyn.LiveRecs {
		if err := CheckRecord(rec, st.Dim); err != nil {
			return nil, fmt.Errorf("engine: state record %d %w", i, err)
		}
	}
	dyn, err := skyband.RestoreDynamic(st.Dyn)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, dyn, st.Dim, st.Epoch, st.Batches), nil
}
