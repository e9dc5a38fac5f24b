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
	// ShadowDepth is how many dominance levels beyond MaxK the engine
	// retains as a deletion-repair shadow band; values below 1 default to
	// MaxK. Deeper shadows survive more skyline-area deletions between
	// recompute fallbacks at the cost of a larger resident member set.
	ShadowDepth int
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
// can actually affect. The originating Dataset itself stays immutable —
// after the first update the engine's answers describe its own, updated
// record collection, with inserted records assigned fresh ids above the
// Dataset's range. Before any update, answers equal the direct
// Dataset.UTK1 and Dataset.UTK2 calls.
//
// An Engine maintains its candidate superset either as one structure
// (NewEngine) or horizontally partitioned (NewShardedEngine); everything
// above it — the query and update API, caching, scheduling — is the same
// code, and sharded answers are exactly the single-engine answers.
type Engine struct {
	ds *Dataset
	e  *engine.Engine
}

// UpdateKind discriminates UpdateOp.
type UpdateKind int

const (
	// UpdateInsert adds Record to the engine's dataset.
	UpdateInsert UpdateKind = iota
	// UpdateDelete removes the record with id ID.
	UpdateDelete
)

// UpdateOp is one element of an Engine.ApplyBatch request.
type UpdateOp struct {
	Kind   UpdateKind
	Record []float64 // for UpdateInsert
	ID     int       // for UpdateDelete
}

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

// EngineStats is a point-in-time snapshot of an Engine's counters.
type EngineStats struct {
	// Queries counts completed queries, however they were served.
	Queries uint64
	// Hits and Misses split result-cache lookups; Shared counts queries that
	// coalesced onto another caller's identical in-flight computation.
	// DerivedHits counts misses answered by clipping a cached
	// containing-region UTK2 result instead of recomputing.
	Hits        uint64
	Misses      uint64
	Shared      uint64
	DerivedHits uint64
	// Evictions counts capacity evictions; CostEvictions counts the subset
	// where the cost-aware policy chose a different victim than plain
	// recency would have. Invalidations counts cache entries evicted because
	// an update could affect them. Rejected counts queries that gave up
	// (deadline or cancellation) before obtaining a result. Saturated counts
	// queries refused at the executor's queue bound (MaxQueued).
	Evictions     uint64
	CostEvictions uint64
	Invalidations uint64
	Rejected      uint64
	Saturated     uint64
	// InFlight is the number of query computations executing right now;
	// Queued is the number of tasks waiting for an executor slot.
	InFlight int
	Queued   int
	// CacheEntries is the current cache population.
	CacheEntries int
	// Epoch is the current index version; it advances whenever an update
	// changes the candidate superset. Live is the current record population.
	Epoch uint64
	Live  int
	// SupersetSize is the current candidate-superset size — the pool every
	// warm query filters instead of the full dataset. ShadowSize and
	// Coverage describe the dynamic maintenance structure behind it: the
	// near-skyband records retained for deletion repair, and the dominance
	// depth up to which membership is currently guaranteed.
	SupersetSize int
	ShadowSize   int
	Coverage     int
	// Inserts, Deletes, and UpdateBatches count applied updates; Promotions,
	// Demotions, ShadowEvictions, and Rebuilds are the incremental skyband's
	// maintenance counters (shadow→band repairs, band→shadow crossings,
	// drops past the retention depth, and shadow-exhaustion recomputations).
	Inserts         uint64
	Deletes         uint64
	UpdateBatches   uint64
	Promotions      uint64
	Demotions       uint64
	ShadowEvictions uint64
	Rebuilds        uint64
	// Sustained-update streaming counters. CoalescedOps counts batch ops
	// elided because an insert and its matching delete cancelled within one
	// batch. AdmissionSkips counts result-cache admissions refused because
	// the entry's class was being invalidated faster than it was hit.
	// Exhaustions counts shadow exhaustions (each forces a reseed); Repairs
	// and RepairSteps count incremental reseed passes and the chunked steps
	// they ran. ShadowDepth is the current adaptive retention depth (deepest
	// shard when sharded); ShadowGrows and ShadowShrinks count its moves.
	CoalescedOps   uint64
	AdmissionSkips uint64
	Exhaustions    uint64
	Repairs        uint64
	RepairSteps    uint64
	ShadowDepth    int
	ShadowGrows    uint64
	ShadowShrinks  uint64
	// ProbeBatches counts update batches that ran a cache-invalidation probe
	// pass; ProbesSaved counts the per-entry probe evaluations avoided by
	// grouping resident entries by (region, k) and probing each distinct
	// shape once per batch instead of once per entry.
	ProbeBatches uint64
	ProbesSaved  uint64
	// BandMaintenanceNS is the cumulative wall time (nanoseconds) spent in
	// batch-native candidate-superset maintenance — the blocking begin-stage
	// cost of applying update batches. BatchApplyOps counts update ops
	// applied through that batch path, and ParallelMaintenanceChunks the
	// maintenance chunks fanned out across executor workers.
	BandMaintenanceNS         uint64
	BatchApplyOps             uint64
	ParallelMaintenanceChunks uint64
	// MaxK and Workers echo the effective configuration. Shards is the
	// number of horizontal partitions behind the engine (1 for NewEngine).
	MaxK    int
	Workers int
	Shards  int
}

// NewEngine builds a serving engine over the dataset.
func (ds *Dataset) NewEngine(cfg EngineConfig) (*Engine, error) {
	e, err := engine.New(ds.tree, ds.records, cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	return &Engine{ds: ds, e: e}, nil
}

// NewShardedEngine builds a serving engine whose candidate superset is
// maintained in the given number of horizontal partitions (round-robin):
// inserts and deletes route to the owning partition and repair only that
// partition's band, and the exact global superset — the MaxK-skyband of the
// union of the partition bands — is what queries filter. Record ids, query
// results, the update API and every serving mechanism (cache, scheduling,
// deadlines, two-stage commit) are NewEngine's: the same serving core runs
// over either band, and a batch spanning several partitions is atomic to
// queries. cfg means what it means for NewEngine; MaxK and ShadowDepth apply
// to every partition. The dataset must have at least one record per shard.
func (ds *Dataset) NewShardedEngine(shards int, cfg EngineConfig) (*Engine, error) {
	e, err := engine.NewPartitioned(ds.records, shards, cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	return &Engine{ds: ds, e: e}, nil
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
		ShadowDepth:  cfg.ShadowDepth,
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
func (e *Engine) Stats() EngineStats {
	st := e.e.Stats()
	return EngineStats{
		Queries:         st.Queries,
		Hits:            st.Hits,
		Misses:          st.Misses,
		Shared:          st.Shared,
		DerivedHits:     st.DerivedHits,
		Evictions:       st.Evictions,
		CostEvictions:   st.CostEvictions,
		Invalidations:   st.Invalidations,
		Rejected:        st.Rejected,
		Saturated:       st.Saturated,
		InFlight:        st.InFlight,
		Queued:          st.Queued,
		CacheEntries:    st.CacheEntries,
		Epoch:           st.Epoch,
		Live:            st.Live,
		SupersetSize:    st.SupersetSize,
		ShadowSize:      st.ShadowSize,
		Coverage:        st.Coverage,
		Inserts:         st.Inserts,
		Deletes:         st.Deletes,
		UpdateBatches:   st.UpdateBatches,
		Promotions:      st.Promotions,
		Demotions:       st.Demotions,
		ShadowEvictions: st.ShadowEvictions,
		Rebuilds:        st.Rebuilds,
		CoalescedOps:    st.CoalescedOps,
		AdmissionSkips:  st.AdmissionSkips,
		ProbeBatches:    st.ProbeBatches,
		ProbesSaved:     st.ProbesSaved,
		Exhaustions:     st.Exhaustions,
		Repairs:         st.Repairs,
		RepairSteps:     st.RepairSteps,
		ShadowDepth:     st.ShadowDepth,
		ShadowGrows:     st.ShadowGrows,
		ShadowShrinks:   st.ShadowShrinks,

		BandMaintenanceNS:         st.BandMaintenanceNS,
		BatchApplyOps:             st.BatchApplyOps,
		ParallelMaintenanceChunks: st.ParallelMaintenanceChunks,

		MaxK:    st.MaxK,
		Workers: st.Workers,
		Shards:  e.e.Shards(),
	}
}

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

// UpdateResult reports the outcome of one ApplyBatch: the per-op ids plus
// the engine state as published by this batch — under concurrent updates,
// these numbers belong to this batch, not whichever applied last.
type UpdateResult struct {
	// IDs is index-aligned with the batch ops: assigned ids for inserts,
	// the deleted ids for deletes.
	IDs []int
	// Epoch is the index version current when this batch was published.
	Epoch uint64
	// Live, SupersetSize, and ShadowSize snapshot the dataset right after
	// this batch applied.
	Live         int
	SupersetSize int
	ShadowSize   int
}

// ApplyBatch applies a sequence of updates atomically with respect to
// queries: every concurrent query observes either the pre-batch or the
// post-batch dataset, never an intermediate state. A validation error
// (ErrBadUpdate, ErrUnknownRecord) leaves the engine unchanged.
func (e *Engine) ApplyBatch(ops []UpdateOp) (*UpdateResult, error) {
	converted := make([]engine.UpdateOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case UpdateInsert:
			converted[i] = engine.UpdateOp{Kind: engine.UpdateInsert, Record: op.Record}
		case UpdateDelete:
			converted[i] = engine.UpdateOp{Kind: engine.UpdateDelete, ID: op.ID}
		default:
			return nil, ErrBadUpdate
		}
	}
	res, err := e.e.ApplyBatch(converted)
	if err != nil {
		return nil, err
	}
	return &UpdateResult{
		IDs:          res.IDs,
		Epoch:        res.Epoch,
		Live:         res.Live,
		SupersetSize: res.SupersetSize,
		ShadowSize:   res.ShadowSize,
	}, nil
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
	converted := make([]engine.UpdateOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case UpdateInsert:
			converted[i] = engine.UpdateOp{Kind: engine.UpdateInsert, Record: op.Record}
		case UpdateDelete:
			converted[i] = engine.UpdateOp{Kind: engine.UpdateDelete, ID: op.ID}
		default:
			return nil, nil, ErrBadUpdate
		}
	}
	res, commit, err := e.e.ApplyBatchPipelined(converted)
	if err != nil {
		return nil, nil, err
	}
	return &UpdateResult{
		IDs:          res.IDs,
		Epoch:        res.Epoch,
		Live:         res.Live,
		SupersetSize: res.SupersetSize,
		ShadowSize:   res.ShadowSize,
	}, commit, nil
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
