package utk

import "repro/internal/engine"

// EngineState is a deep snapshot of an Engine's mutable dataset state: the
// live records (strongest first), the id allocator, epoch and counters, and
// no band. It is the unit the durability layer snapshots and restores:
// applying the same update batches to a restored engine yields answers
// bit-identical to the original's.
type EngineState = engine.State

// State captures the engine's dataset state as one consistent snapshot
// (serialized against updates: it waits for a batch begun with
// ApplyBatchPipelined to commit — a begun batch has only validated, and its
// band maintenance runs in commit — and carries the epoch commit published;
// queries are not blocked). Record slices in the state are shared with the engine
// and must not be mutated.
func (e *Engine) State() *EngineState { return e.e.ExportState() }

// RestoreEngine builds an Engine from a captured state as NewEngine builds
// one from records: the records are checked as NewEngine checks them, and
// the candidate superset and its maintenance structure are built from them,
// minus the sort (the state lists them strongest first). cfg supplies the
// serving parameters (cache, workers, backpressure, timeout); MaxK comes
// from the state.
func RestoreEngine(st *EngineState, cfg EngineConfig) (*Engine, error) {
	e, err := engine.Restore(st, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}
