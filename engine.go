package utk

import (
	"context"
	"errors"

	"repro/internal/engine"
)

// EngineConfig tunes a query-serving Engine: the serving core's own
// configuration (an alias, declared once in internal/engine). MaxK is
// required; CacheEntries 0 selects DefaultEngineCacheEntries and a negative
// value disables caching; Workers below 1 default to GOMAXPROCS; MaxQueued 0
// is an unbounded slot queue, negative none at all; a positive QueryTimeout
// is the deadline of queries whose context carries none.
type EngineConfig = engine.Config

// DefaultEngineCacheEntries is the result-cache capacity used when
// EngineConfig.CacheEntries is zero.
const DefaultEngineCacheEntries = engine.DefaultCacheEntries

// Engine serves many UTK queries over one dataset, amortizing work across
// queries: the r-dominance filtering reuses a maintained candidate superset,
// identical queries are answered from an LRU result cache — with
// containment-based reuse deriving answers for regions nested in a cached
// UTK2 region by cell clipping — and a miss computes on the calling
// goroutine once it holds one of EngineConfig.Workers slots and has looked
// in the cache again (so concurrent duplicates compute at most Workers
// times), with per-query deadlines threaded into the refinement recursion.
// Each UTK1 or UTK2 call answers one query; it is safe for concurrent use,
// so a caller with many queries issues concurrent calls, which share the
// slots.
//
// The engine's dataset is mutable: Insert, Delete, and ApplyBatch maintain
// the candidate superset incrementally (orders of magnitude cheaper than
// rebuilding the engine) and invalidate only the cached results the change
// can actually affect. An engine built from a Dataset leaves it immutable —
// after the first update the engine's answers describe its own, updated
// record collection, with inserted records assigned fresh ids above the
// initial range. Before any update, answers equal the direct Dataset.UTK1
// and Dataset.UTK2 calls over the same records.
type Engine struct {
	e *engine.Engine
}

// The update and stats types are the serving core's own (aliases, not copies:
// a value crosses the facade, the registry and the WAL codec unconverted, and
// a new counter is declared once, in internal/engine or internal/skyband).
type (
	// UpdateKind discriminates UpdateOp: UpdateInsert adds Record to the
	// engine's dataset, UpdateDelete removes the record with id ID.
	UpdateKind = engine.UpdateKind
	// UpdateOp is one element of an Engine.ApplyBatch request:
	// {Kind, Record (for UpdateInsert), ID (for UpdateDelete)}.
	UpdateOp = engine.UpdateOp
	// UpdateResult reports the outcome of one ApplyBatch: IDs, index-aligned
	// with the batch ops (assigned ids for inserts, the deleted ids for
	// deletes), plus the engine state as published by this batch — Epoch,
	// Live, SupersetSize, ShadowSize. Under concurrent updates these numbers
	// belong to this batch, not whichever applied last.
	UpdateResult = engine.UpdateResult
	// EngineStats is a point-in-time snapshot of an Engine's counters: the
	// query, cache, slot and update-batch counters of the serving core
	// plus, embedded, the candidate-superset maintenance counters (Live,
	// SupersetSize, ShadowSize, Inserts, Deletes, promotions, …) as of the
	// last completed update batch.
	EngineStats = engine.Stats
)

// The two update kinds.
const (
	UpdateInsert = engine.UpdateInsert
	UpdateDelete = engine.UpdateDelete
)

// Errors returned by the update API.
var (
	// ErrUnknownRecord reports a delete of an id that is not live.
	ErrUnknownRecord = engine.ErrUnknownRecord
	// ErrBadUpdate reports a malformed update (wrong dimensionality,
	// non-finite attribute, or unknown operation kind).
	ErrBadUpdate = engine.ErrBadUpdate
)

// ErrSaturated reports that a query was refused because the engine's slot
// queue was at its EngineConfig.MaxQueued bound — the load-shedding
// signal the HTTP tier converts into 429 with Retry-After.
var ErrSaturated = engine.ErrSaturated

// NewEngine builds a serving engine directly over the records (copied into
// one block, which stays in memory until the engine is dropped, even after
// every initial record is deleted; NewDataset's rules: at least one, all of
// the same dimensionality 2 ≤ d ≤ 12, finite attributes), record i getting
// id i. Nothing is indexed, so this is the constructor for callers that only
// serve: a Dataset additionally holds the R-tree the stateless
// Dataset.UTK1/UTK2 and the baselines run on.
func NewEngine(records [][]float64, cfg EngineConfig) (*Engine, error) {
	e, err := engine.New(records, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// NewEngine builds a serving engine over (a copy of) the dataset's records.
func (ds *Dataset) NewEngine(cfg EngineConfig) (*Engine, error) {
	return NewEngine(ds.records, cfg)
}

// MaxK returns the largest top-k depth the engine serves.
func (e *Engine) MaxK() int { return e.e.MaxK() }

// Dim returns the data dimensionality the engine serves.
func (e *Engine) Dim() int { return e.e.Dim() }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Insert adds a record to the engine's dataset (copied; same dimensionality
// as the dataset, finite attributes) and returns its assigned id. The
// candidate superset is repaired incrementally and only the cached results
// the new record can actually affect are invalidated.
func (e *Engine) Insert(record []float64) (int, error) {
	return e.e.Insert(record)
}

// Delete removes the record with the given id from the engine's dataset,
// under the same incremental-maintenance guarantees as Insert. Deleting an
// id that is not live returns ErrUnknownRecord.
func (e *Engine) Delete(id int) error {
	return e.e.Delete(id)
}

// ApplyBatch applies a sequence of updates atomically with respect to
// queries: every concurrent query observes either the pre-batch or the
// post-batch dataset, never an intermediate state. A validation error
// (ErrBadUpdate, ErrUnknownRecord) leaves the engine unchanged.
func (e *Engine) ApplyBatch(ops []UpdateOp) (*UpdateResult, error) {
	return e.e.ApplyBatch(ops)
}

// ApplyBatchPipelined is the two-stage form of ApplyBatch for callers with
// their own per-batch work to overlap against applying it — the durable
// registry runs its WAL append concurrently with the returned commit. This
// call validates the batch: when it returns, the result's IDs are final and
// nothing else has happened (Epoch still reports the epoch the batch applies
// on). Band maintenance, invalidation probing and the index publish run in
// commit, which then fills in the result's Epoch, Live, SupersetSize and
// ShadowSize; queries observe the batch only once commit has run. One batch
// is in flight at a time: the next update (and State) waits until commit
// returns, so commit must be called exactly once per successful call
// (calling it again is a no-op).
func (e *Engine) ApplyBatchPipelined(ops []UpdateOp) (*UpdateResult, func(), error) {
	return e.e.ApplyBatchPipelined(ops)
}

// UTK1 answers a UTK1 query through the engine. The query must use the
// paper's algorithms (AlgoAuto or AlgoRSA) without the drill ablations
// (DisableDrill, LinearDrill), which only a Dataset runs.
func (e *Engine) UTK1(ctx context.Context, q Query) (*UTK1Result, error) {
	res, err := e.do(ctx, engine.UTK1, q)
	if err != nil {
		return nil, err
	}
	return &UTK1Result{
		Records:  append([]int(nil), res.IDs...),
		Stats:    statsFromCore(&res.Stats),
		CacheHit: res.CacheHit,
		Derived:  res.Derived,
	}, nil
}

// UTK2 answers a UTK2 query through the engine, under the same constraints
// as UTK1.
func (e *Engine) UTK2(ctx context.Context, q Query) (*UTK2Result, error) {
	res, err := e.do(ctx, engine.UTK2, q)
	if err != nil {
		return nil, err
	}
	out := utk2ResultFromCells(res.Cells, statsFromCore(&res.Stats))
	out.CacheHit = res.CacheHit
	out.Derived = res.Derived
	return out, nil
}

func (e *Engine) do(ctx context.Context, v engine.Variant, q Query) (*engine.Result, error) {
	req, err := e.request(v, q)
	if err != nil {
		return nil, err
	}
	return e.e.Do(ctx, req)
}

func (e *Engine) request(v engine.Variant, q Query) (engine.Request, error) {
	if q.Algorithm != AlgoAuto && q.Algorithm != AlgoRSA {
		return engine.Request{}, errors.New("utk: the engine serves the paper's RSA/JAA algorithms only")
	}
	if q.DisableDrill || q.LinearDrill {
		return engine.Request{}, errors.New("utk: the engine serves no drill ablation; run it on a Dataset")
	}
	if err := q.validateDim(e.e.Dim()); err != nil {
		return engine.Request{}, err
	}
	return engine.Request{
		Variant: v,
		K:       q.K,
		Region:  q.Region.r,
	}, nil
}
