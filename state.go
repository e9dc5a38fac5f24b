package utk

import "repro/internal/engine"

// EngineState is a deep snapshot of an Engine's mutable dataset state. It is
// the unit the durability layer snapshots and restores: applying the same
// update batches to a restored engine yields answers bit-identical to the
// original's.
type EngineState = engine.State

// State captures the engine's dataset state as one consistent snapshot
// (serialized against updates: it waits for a batch begun with
// ApplyBatchPipelined to commit — a begun batch has only validated, and its
// band maintenance runs in commit — and carries the epoch commit published;
// queries are not blocked). Record slices in the state are shared with the engine
// and must not be mutated.
func (e *Engine) State() *EngineState { return e.e.ExportState() }

// RestoreEngine rebuilds an Engine from a captured state: queries run over
// the snapshotted candidate superset and updates over the restored
// maintenance structure, so recovery costs one fence pass over the live
// records instead of NewEngine's recomputation of the superset. cfg supplies
// the serving parameters (cache, workers, backpressure, timeout); MaxK comes
// from the state.
func RestoreEngine(st *EngineState, cfg EngineConfig) (*Engine, error) {
	e, err := engine.Restore(st, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}
