package utk

import (
	"context"
	"errors"
	"time"

	"repro/internal/engine"
)

// EngineConfig tunes a query-serving Engine.
type EngineConfig struct {
	// MaxK is the largest top-k depth the engine serves (required, positive).
	// The engine's candidate superset is maintained at this depth; queries
	// with K ≤ MaxK reuse it instead of refiltering the whole dataset.
	MaxK int
	// CacheEntries bounds the result cache (cost-aware eviction with a
	// containment index; see EngineStats.DerivedHits/CostEvictions). Zero
	// selects DefaultEngineCacheEntries; negative values disable caching.
	// Eviction is heap-ordered (O(log capacity) per overflow), so large
	// capacities are safe; under sustained updates the cache additionally
	// refuses admission for query classes whose entries are invalidated
	// faster than they are hit (EngineStats.AdmissionSkips).
	CacheEntries int
	// Workers bounds the engine's executor: at most this many tasks —
	// queries, plus the refinement subtasks of queries that request
	// intra-query parallelism via Query.Workers — run at a time. Values
	// below 1 default to runtime.GOMAXPROCS(0).
	Workers int
	// MaxQueued bounds how many queries may wait for an executor slot before
	// new arrivals are rejected with ErrSaturated — the backpressure signal
	// serving tiers map to 429 responses. 0 means unbounded (no
	// backpressure); negative means no queue at all (reject whenever every
	// worker is busy); positive is the bound itself.
	MaxQueued int
	// QueryTimeout, when positive, is the deadline applied to queries whose
	// context carries none. It covers queueing, waiting on a deduplicated
	// identical query, and — through the cancellation hook threaded into
	// the refinement recursion — the computation itself: an expired query
	// aborts mid-refinement and frees its worker slot promptly.
	QueryTimeout time.Duration
}

// DefaultEngineCacheEntries is the result-cache capacity used when
// EngineConfig.CacheEntries is zero.
const DefaultEngineCacheEntries = 256

// Engine serves many UTK queries over one dataset, amortizing work across
// queries: the r-dominance filtering reuses a maintained candidate superset,
// identical queries are answered from a cost-aware result cache — with
// containment-based reuse deriving answers for regions nested in a cached
// UTK2 region by cell clipping, and single-flight deduplication of
// concurrent duplicates — and execution runs on a bounded
// worker pool with per-query deadlines threaded into the refinement
// recursion. It is safe for concurrent use.
//
// The engine's dataset is mutable: Insert, Delete, and ApplyBatch maintain
// the candidate superset incrementally (orders of magnitude cheaper than
// rebuilding the engine) and invalidate only the cached results the change
// can actually affect. An engine built from a Dataset leaves it immutable —
// after the first update the engine's answers describe its own, updated
// record collection, with inserted records assigned fresh ids above the
// initial range. Before any update, answers equal the direct Dataset.UTK1
// and Dataset.UTK2 calls over the same records.
//
// An Engine maintains its candidate superset either as one structure
// (NewEngine) or horizontally partitioned (NewShardedEngine); everything
// above it — the query and update API, caching, scheduling — is the same
// code, and sharded answers are exactly the single-engine answers.
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
	// query, cache, executor and update-batch counters of the serving core
	// plus, embedded, the candidate-superset maintenance counters (Live,
	// SupersetSize, ShadowSize, Inserts, Deletes, promotions, …) as of the
	// last completed update batch — summed over the partitions of a sharded
	// engine.
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

// ErrSaturated reports that a query was refused because the engine's
// executor queue was at its EngineConfig.MaxQueued bound — the load-shedding
// signal the HTTP tier converts into 429 with Retry-After.
var ErrSaturated = engine.ErrSaturated

// NewEngine builds a serving engine directly over the records (copied;
// NewDataset's rules: at least one, all of the same dimensionality d ≥ 2,
// finite attributes), record i getting id i. Nothing is indexed, so this is
// the constructor for callers that only serve: a Dataset additionally holds
// the R-tree the stateless Dataset.UTK1/UTK2 and the baselines run on.
//
// shards above 1 maintains the candidate superset in that many horizontal
// partitions (round-robin): inserts and deletes route to the owning partition
// and maintain only that partition's band, and the exact global superset —
// the MaxK-skyband of the union of the partition bands — is what queries
// filter. Record ids, query results, the update API and every serving
// mechanism (cache, scheduling, deadlines, two-stage commit) are the same
// either way, and a batch spanning several partitions is atomic to queries.
// MaxK applies to every partition; there must be at least one record per
// shard.
func NewEngine(records [][]float64, shards int, cfg EngineConfig) (*Engine, error) {
	cp, err := copyRecords(records)
	if err != nil {
		return nil, err
	}
	return newEngine(cp, shards, cfg)
}

// NewEngine builds a serving engine over the dataset's records.
func (ds *Dataset) NewEngine(cfg EngineConfig) (*Engine, error) {
	return newEngine(ds.records, 1, cfg)
}

// NewShardedEngine builds a serving engine over the dataset's records whose
// candidate superset is maintained in the given number of horizontal
// partitions (see the package-level NewEngine).
func (ds *Dataset) NewShardedEngine(shards int, cfg EngineConfig) (*Engine, error) {
	return newEngine(ds.records, shards, cfg)
}

// newEngine builds over validated records it may keep: one band for shards
// 1, a partitioned one otherwise (which rejects shards < 1).
func newEngine(records [][]float64, shards int, cfg EngineConfig) (*Engine, error) {
	var e *engine.Engine
	var err error
	if shards == 1 {
		e, err = engine.New(records, cfg.engineConfig())
	} else {
		e, err = engine.NewPartitioned(records, shards, cfg.engineConfig())
	}
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// engineConfig maps the facade configuration onto the serving core's, resolving
// the CacheEntries default.
func (cfg EngineConfig) engineConfig() engine.Config {
	entries := cfg.CacheEntries
	switch {
	case entries == 0:
		entries = DefaultEngineCacheEntries
	case entries < 0:
		entries = 0
	}
	return engine.Config{
		MaxK:         cfg.MaxK,
		CacheEntries: entries,
		Workers:      cfg.Workers,
		MaxQueued:    cfg.MaxQueued,
		QueryTimeout: cfg.QueryTimeout,
	}
}

// MaxK returns the largest top-k depth the engine serves.
func (e *Engine) MaxK() int { return e.e.MaxK() }

// Dim returns the data dimensionality the engine serves.
func (e *Engine) Dim() int { return e.e.Dim() }

// Shards returns the number of horizontal partitions behind the engine
// (1 for engines built with NewEngine).
func (e *Engine) Shards() int { return e.e.Shards() }

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
// their own per-batch work to overlap against cache invalidation — the
// durable registry runs its WAL append concurrently with the returned
// commit. When this call returns, the batch has applied and the result is
// final, but queries observe it only once commit has run; commit must be
// called exactly once per successful call (calling it again is a no-op).
// Invalidation probing and the index publish are deferred to commit, for
// single and sharded engines alike.
func (e *Engine) ApplyBatchPipelined(ops []UpdateOp) (*UpdateResult, func(), error) {
	return e.e.ApplyBatchPipelined(ops)
}

// UTK1 answers a UTK1 query through the engine. The query must use the
// paper's algorithms (AlgoAuto or AlgoRSA). Query.Workers > 1 requests
// intra-query parallel refinement, fanned out on the engine's own executor
// so one pool governs inter- and intra-query concurrency.
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

// UTK1Batch answers many UTK1 queries concurrently (bounded by the engine's
// worker pool), returning one result or error per query, index-aligned.
func (e *Engine) UTK1Batch(ctx context.Context, qs []Query) ([]*UTK1Result, []error) {
	results := make([]*UTK1Result, len(qs))
	errs := e.batch(ctx, engine.UTK1, qs, func(i int, res *engine.Result) {
		results[i] = &UTK1Result{
			Records:  append([]int(nil), res.IDs...),
			Stats:    statsFromCore(&res.Stats),
			CacheHit: res.CacheHit,
			Derived:  res.Derived,
		}
	})
	return results, errs
}

// UTK2Batch answers many UTK2 queries concurrently, like UTK1Batch.
func (e *Engine) UTK2Batch(ctx context.Context, qs []Query) ([]*UTK2Result, []error) {
	results := make([]*UTK2Result, len(qs))
	errs := e.batch(ctx, engine.UTK2, qs, func(i int, res *engine.Result) {
		results[i] = utk2ResultFromCells(res.Cells, statsFromCore(&res.Stats))
		results[i].CacheHit = res.CacheHit
		results[i].Derived = res.Derived
	})
	return results, errs
}

func (e *Engine) batch(ctx context.Context, v engine.Variant, qs []Query, emit func(int, *engine.Result)) []error {
	reqs := make([]engine.Request, 0, len(qs))
	idx := make([]int, 0, len(qs)) // batch position -> original position
	errs := make([]error, len(qs))
	for i, q := range qs {
		req, err := e.request(v, q)
		if err != nil {
			errs[i] = err
			continue
		}
		reqs = append(reqs, req)
		idx = append(idx, i)
	}
	results, doErrs := e.e.DoBatch(ctx, reqs)
	for bi, i := range idx {
		if doErrs[bi] != nil {
			errs[i] = doErrs[bi]
			continue
		}
		emit(i, results[bi])
	}
	return errs
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
	if err := q.validateDim(e.e.Dim()); err != nil {
		return engine.Request{}, err
	}
	return engine.Request{
		Variant: v,
		K:       q.K,
		Region:  q.Region.r,
		Opts:    q.coreOptions(),
	}, nil
}
