// Package engine serves many UTK queries over one mutable dataset,
// amortizing work across queries instead of paying the full pipeline per
// call. Four mechanisms stack:
//
//  1. Build-once/query-many filtering: the engine maintains the classic
//     k-skyband of the dataset at its maximum supported depth MaxK. Classic
//     dominance implies r-dominance for every region, so that skyband is a
//     valid candidate superset for any query region and any k ≤ MaxK, and
//     (by transitivity of r-dominance) counting dominators within the
//     superset stays exact. The band hands the superset over with exact
//     dominator counts, in count-major order, so the k-skyband for every
//     k ≤ MaxK is a prefix of it — of its ids, its records and the rows of
//     its one float32 layout — and nothing per depth is derived or stored.
//     Each query then filters its depth's prefix with the tree-free
//     sort-and-sweep (skyband.ScanGraphWith) instead of the paper's
//     branch-and-bound over an R-tree of the whole dataset — the filter is
//     the dominant share of cold-query latency, and skyband-shaped candidate
//     sets defeat MBB pruning anyway. The engine builds and holds no tree at
//     all.
//  2. Incremental updates: Insert, Delete, and ApplyBatch maintain the
//     skyband superset through a skyband.Dynamic (the exact band plus the
//     fence — the skyline of the other records — so no update ever recomputes
//     or repairs anything) instead of rebuilding the engine. Candidate lists
//     are epoch-versioned: queries compute against an immutable snapshot and
//     updates publish a fresh snapshot, so readers never observe a torn
//     superset. Cached results are invalidated precisely — an update record
//     that is r-dominated by at least k others throughout a cached region
//     cannot appear in (or vanish from) any top-k set there, so that entry
//     survives — rather than flushing the whole cache per update.
//  3. A result cache (the rescache subsystem) keyed on a canonicalized
//     (variant, k, region, ablation flags) fingerprint, with single-flight
//     deduplication so concurrent identical queries compute once and share
//     the result.
//     Eviction is cost-aware — entries carry their measured recompute cost,
//     so cheap UTK1 id-lists churn before expensive UTK2 partitionings —
//     and an exact miss whose region lies inside a cached UTK2 region is
//     answered by cell clipping (see deriveClipped) instead of recomputing:
//     exact, with zero refinement work.
//  4. A bounded executor (the shared internal/exec scheduler) with per-query
//     deadlines; the deadline (and a superseded-epoch check) is threaded into
//     the refinement recursion via core.Options.Cancel, so an expired or
//     stale query frees its worker slot promptly instead of running to
//     completion. Queries requesting intra-query parallelism
//     (Request.Opts.Workers > 1) fan their refinement subtasks out on the
//     same executor, and a configurable queue bound turns overload into
//     ErrSaturated backpressure instead of unbounded queueing.
//
// The engine is the one serving core for every partitioning: it reaches its
// band maintainer only through the band interface below, implemented by a
// single skyband.Dynamic (New) and by shard.Band, S dynamics plus id routing
// (NewPartitioned). Sharding changes where the MaxK-skyband comes from and
// nothing above it.
package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/skyband"
)

// Variant selects which UTK problem a request asks for.
type Variant int

const (
	// UTK1 asks for the ids appearing in at least one top-k set (RSA).
	UTK1 Variant = iota
	// UTK2 asks for the full partitioning of the region (JAA).
	UTK2
)

// Errors returned on invalid requests and updates.
var (
	ErrKTooLarge     = errors.New("engine: query k exceeds the engine's MaxK")
	ErrNilRegion     = errors.New("engine: query requires a region")
	ErrUnknownRecord = errors.New("engine: record id is not live")
	ErrBadUpdate     = errors.New("engine: invalid update operation")
	// ErrSaturated reports that the executor's queue was at its configured
	// bound (Config.MaxQueued) when the query arrived — the backpressure
	// signal serving layers turn into 429 responses.
	ErrSaturated = errors.New("engine: executor queue saturated")
)

// CheckRecord is the one definition of a usable record: exactly dim
// attributes, every one finite. Dataset construction and the update path
// both go through it.
func CheckRecord(rec []float64, dim int) error {
	if len(rec) != dim {
		return fmt.Errorf("has %d attributes, want %d", len(rec), dim)
	}
	for j, v := range rec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("attribute %d is not finite: %g", j, v)
		}
	}
	return nil
}

// errAborted marks a flight whose leader gave up (context expiry) before the
// computation finished; waiters react by electing a new leader.
var errAborted = errors.New("engine: in-flight computation aborted")

// Config tunes an Engine.
type Config struct {
	// MaxK is the largest top-k depth the engine serves (required, positive).
	// The maintained skyband superset is computed at this depth.
	MaxK int
	// CacheEntries bounds the result cache; 0 disables caching.
	CacheEntries int
	// Workers bounds the engine's executor (an internal/exec pool): at most
	// this many tasks — queries, and the refinement subtasks of queries that
	// request intra-query parallelism via Request.Opts.Workers — execute at
	// a time. Values below 1 default to runtime.GOMAXPROCS(0).
	Workers int
	// MaxQueued bounds how many queries may wait for an executor slot before
	// new arrivals are rejected with ErrSaturated: 0 means unbounded (no
	// backpressure), negative means no queue at all (reject whenever every
	// worker is busy), positive is the bound itself.
	MaxQueued int
	// QueryTimeout, when positive, is the deadline applied to queries whose
	// context carries none. The deadline covers queueing for a worker slot,
	// waiting on a deduplicated in-flight computation, and — through the
	// cancellation hook threaded into the refinement recursion — the
	// computation itself.
	QueryTimeout time.Duration
}

// Request is one UTK query addressed to an Engine.
type Request struct {
	Variant Variant
	K       int
	Region  *geom.Region
	// Opts forwards the algorithm switches. Workers > 1 requests intra-query
	// parallel refinement (RSA candidate verification, JAA region
	// decomposition), fanned out on the engine's own executor so one pool
	// governs all concurrency. Cancel is overwritten by the engine's
	// deadline/epoch hook; the ablation flags and Workers participate in the
	// cache fingerprint (decomposed UTK2 answers are exact but may carve
	// cells differently than sequential ones, so each worker setting caches
	// its own answer). Pool and Split are overwritten by the engine: all
	// queries share its executor and its decomposition cost model.
	Opts core.Options
}

// Result is the answer to a Request. Results may be shared between callers
// through the cache and must be treated as immutable.
type Result struct {
	// IDs is the UTK1 answer (sorted dataset ids); nil for UTK2.
	IDs []int
	// Cells is the UTK2 answer; nil for UTK1.
	Cells []core.CellResult
	// Stats describes the computation that produced the result. Cache hits
	// carry the stats of the original computation.
	Stats core.Stats
	// Epoch is the index version the result was computed against. Cache hits
	// report the epoch of the original computation; the entry's survival
	// guarantees the answer is still exact for the current dataset.
	Epoch uint64
	// Cost is the measured recompute cost of the answer (filter plus
	// refinement time for fresh computations; inherited from the source for
	// clip-derived answers). The result cache's eviction policy weighs
	// entries by it.
	Cost time.Duration
	// CacheHit reports whether this answer was served from the result cache.
	CacheHit bool
	// Derived reports whether this answer was derived from a cached
	// containing-region UTK2 result by cell clipping rather than computed by
	// RSA/JAA (or copied from an entry that was).
	Derived bool
}

// Stats is a point-in-time snapshot of the engine's counters. It is the one
// declaration of the serving counters: the engine increments them in a value
// of this type, the facade's EngineStats is an alias of it, and the HTTP
// layer's stats table reads the fields from there.
type Stats struct {
	// DynamicStats is the band maintainer's view as of the last completed
	// update batch: population and band/fence sizes, the applied
	// insert/delete counts and the maintenance counters (summed over the
	// partitions of a sharded engine; see skyband.DynamicStats.Add).
	skyband.DynamicStats
	// Queries counts completed queries, however they were served.
	Queries uint64
	// Hits and Misses split cache lookups; Shared counts queries that
	// coalesced onto another caller's in-flight computation. DerivedHits
	// counts misses answered by clipping a cached containing-region UTK2
	// result instead of recomputing (Queries = Hits + Misses + Shared +
	// DerivedHits).
	Hits        uint64
	Misses      uint64
	Shared      uint64
	DerivedHits uint64
	// Evictions counts capacity evictions; CostEvictions counts the subset
	// where the cost-aware policy picked a different victim than plain LRU
	// would have. Invalidations counts cache entries evicted because an
	// update could affect them; AdmissionSkips counts results the cache's
	// update-rate-aware admission policy refused. Rejected counts queries
	// that gave up (deadline or cancellation) before obtaining a result.
	// Saturated counts queries refused at the executor's queue bound
	// (Config.MaxQueued).
	Evictions      uint64
	CostEvictions  uint64
	Invalidations  uint64
	AdmissionSkips uint64
	Rejected       uint64
	Saturated      uint64
	// InFlight is the number of query computations executing right now;
	// Queued is the number of tasks waiting for an executor slot.
	InFlight int
	Queued   int
	// CacheEntries is the current cache population.
	CacheEntries int
	// Epoch is the current index version; it advances whenever an update
	// changes the candidate superset.
	Epoch uint64
	// UpdateBatches counts applied update batches. ProbeBatches counts those
	// that ran a cache-invalidation probe pass; ProbesSaved counts the
	// per-entry probe evaluations the batched (region, k)-grouped pass
	// avoided relative to probing every resident entry against every
	// classified delta individually.
	UpdateBatches uint64
	ProbeBatches  uint64
	ProbesSaved   uint64
	// MaxK and Workers echo the effective configuration; Shards is the number
	// of band partitions behind the engine (1 unless built with
	// NewPartitioned).
	MaxK    int
	Workers int
	Shards  int
}

// UpdateKind discriminates UpdateOp.
type UpdateKind int

const (
	// UpdateInsert adds Record to the dataset.
	UpdateInsert UpdateKind = iota
	// UpdateDelete removes the record with id ID.
	UpdateDelete
)

// UpdateOp is one element of an ApplyBatch request.
type UpdateOp struct {
	Kind   UpdateKind
	Record []float64 // for UpdateInsert
	ID     int       // for UpdateDelete
}

// index is one immutable epoch of the candidate lists: the MaxK-skyband with
// its exact counts, in the band's count-major order, and its flat float32
// layout for the interval prefilter's score kernel (nil when an attribute is
// beyond float32 range; the filter then runs in float64). The k-skyband is
// the prefix of the entries with count < k — of the ids, the records and the
// layout's rows. It is built once per publication and shared read-only by
// every query against it.
type index struct {
	epoch  uint64
	ids    []int
	recs   [][]float64
	counts []int
	cols   *skyband.Columns
}

// bandIndex snapshots the band (see band.Band; the slices are immutable from
// here on) into a new index at the given epoch.
func bandIndex(epoch uint64, b band) *index {
	ids, recs, counts := b.Band()
	return &index{epoch: epoch, ids: ids, recs: recs, counts: counts, cols: skyband.NewColumns(recs)}
}

// flight is one in-progress computation that concurrent identical queries
// rendezvous on.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// band is everything the engine asks of its band maintainer: the MaxK-skyband
// of a mutable record collection with engine-wide record ids. Implementations
// need not be safe for concurrent use; the engine serializes every call under
// updMu. (State capture is the one per-implementation step; see ExportState.)
type band interface {
	// Record returns a live record's coordinates (shared), or nil.
	Record(id int) []float64
	// ApplyOps validates and applies a batch as one unit, assigning inserts
	// sequential never-reused ids; see skyband.Dynamic.ApplyOps. A rejected
	// batch leaves the band untouched.
	ApplyOps(ops []skyband.Op) ([]int, []skyband.Effect, error)
	// Band returns the current MaxK-skyband as parallel id/record/count
	// slices, with exact dominator counts, sorted count-major with ties by id
	// (so every k-skyband is a prefix), immutable once returned.
	Band() ([]int, [][]float64, []int)
	Stats() skyband.DynamicStats
}

// Engine serves UTK queries over one dataset and applies incremental
// updates to it. It is safe for concurrent use.
type Engine struct {
	cfg Config
	dim int

	pool *exec.Pool // the executor: query dispatch + intra-query fan-out

	// split is the engine's decomposition cost model: every parallel UTK2
	// query calibrates it and consults it, so the piece count adapts to this
	// dataset's candidate density on this machine. Safe for concurrent use.
	split *core.SplitModel

	// updMu serializes updates and guards band. Queries never take it: they
	// read the epoch-versioned index snapshot below. It also guards the
	// pipeline's begin-stage bookkeeping: reservedEpoch (the epoch the most
	// recently begun batch will have published at its commit — equal to the
	// published epoch whenever no batch is in flight) and nextTicket.
	updMu         sync.Mutex
	band          band
	reservedEpoch uint64
	nextTicket    uint64

	// commitMu orders batch commits: a commit waits here until every earlier
	// ticket has published, so epochs become visible monotonically and a
	// batch's invalidation always lands before any later batch's epoch.
	commitMu      sync.Mutex
	commitCond    *sync.Cond
	lastCommitted uint64

	// idx is the current index snapshot; updates that change the superset
	// publish a fresh one with a bumped epoch.
	idx atomic.Pointer[index]

	// mu guards the cache, the flights and stats. stats holds every counter,
	// incremented in place; its DynamicStats is refreshed at the end of each
	// batch, MaxK/Workers/Shards are fixed at construction, and Epoch, Queued
	// and CacheEntries are filled only in the copy Stats returns.
	mu       sync.Mutex
	cache    *resultCache
	stats    Stats
	updating int // open invalidation-probe windows; finish skips caching while > 0
	inflight map[string]*flight
}

// New builds an engine over the records (ids 0..n-1). The engine keeps
// references to the record slices but never mutates them, and subsequent
// updates to the engine leave the caller's records untouched.
func New(records [][]float64, cfg Config) (*Engine, error) {
	if len(records) == 0 {
		return nil, core.ErrEmptyDataset
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pool := exec.NewPool(cfg.Workers, cfg.MaxQueued)
	// The k-skyband at MaxK is the one region-independent superset of every
	// r-skyband the engine can be asked for; the dynamic structure maintains
	// it under updates.
	dyn, err := skyband.NewDynamic(records, cfg.MaxK)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, pool, dyn, len(records[0]), 0, 0), nil
}

// NewPartitioned builds an engine whose band is maintained in parts
// horizontal partitions (record i on part i mod parts, inserts continuing the
// round-robin; see package shard). Record ids, answers and the whole serving
// surface are those of New over the same records; only band maintenance is
// split. As with New, the record slices are referenced, never mutated.
func NewPartitioned(records [][]float64, parts int, cfg Config) (*Engine, error) {
	if len(records) == 0 {
		return nil, core.ErrEmptyDataset
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pool := exec.NewPool(cfg.Workers, cfg.MaxQueued)
	b, err := shard.New(records, parts, cfg.MaxK)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, pool, b, len(records[0]), 0, 0), nil
}

// withDefaults validates MaxK and fills the defaulted fields.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.MaxK <= 0 {
		return cfg, core.ErrBadK
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg, nil
}

// newEngine is the one place an Engine is assembled — fresh or restored,
// single or partitioned — so a field added later cannot be missed on one of
// the paths. cfg must have been through withDefaults; epoch and batches seed
// the publish and batch counters (zero for a fresh engine).
func newEngine(cfg Config, pool *exec.Pool, b band, dim int, epoch, batches uint64) *Engine {
	e := &Engine{
		cfg:           cfg,
		dim:           dim,
		pool:          pool,
		split:         &core.SplitModel{},
		band:          b,
		reservedEpoch: epoch,
		inflight:      make(map[string]*flight),
		stats: Stats{
			DynamicStats:  b.Stats(),
			UpdateBatches: batches,
			MaxK:          cfg.MaxK,
			Workers:       cfg.Workers,
			Shards:        1,
		},
	}
	if parts, ok := b.(*shard.Band); ok {
		e.stats.Shards = parts.Parts()
	}
	e.commitCond = sync.NewCond(&e.commitMu)
	if cfg.CacheEntries > 0 {
		e.cache = newResultCache(cfg.CacheEntries)
	}
	e.idx.Store(bandIndex(epoch, b))
	return e
}

// SupersetSize returns the current size of the candidate superset.
func (e *Engine) SupersetSize() int { return len(e.idx.Load().ids) }

// MaxK returns the largest supported top-k depth.
func (e *Engine) MaxK() int { return e.cfg.MaxK }

// Dim returns the data dimensionality.
func (e *Engine) Dim() int { return e.dim }

// Epoch returns the current index version.
func (e *Engine) Epoch() uint64 { return e.idx.Load().epoch }

// Shards reports the number of band partitions behind this engine (1 unless
// built with NewPartitioned).
func (e *Engine) Shards() int { return e.stats.Shards } // fixed at construction

// UpdateResult reports the outcome of one ApplyBatch: the per-op ids and
// the engine state as published by this batch (not a later concurrent one).
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

// Insert adds a record to the dataset and returns its assigned id.
func (e *Engine) Insert(rec []float64) (int, error) {
	res, err := e.ApplyBatch([]UpdateOp{{Kind: UpdateInsert, Record: rec}})
	if err != nil {
		return 0, err
	}
	return res.IDs[0], nil
}

// Delete removes the record with the given id.
func (e *Engine) Delete(id int) error {
	_, err := e.ApplyBatch([]UpdateOp{{Kind: UpdateDelete, ID: id}})
	return err
}

// affectsTest is the deferred precise-invalidation probe for one update that
// touched the band. All of a batch's probes share one post-batch band
// snapshot; the soundness argument is per-batch rather than per-op. A cached
// (region, k) entry survives the batch iff the pre- and post-batch answers
// coincide, for which it suffices that
//
//   - every net-inserted record appears in no top-k set anywhere in the
//     region under the post-batch dataset, and
//   - every net-deleted record appeared in no top-k set anywhere in the
//     region under the pre-batch dataset
//
// (records both inserted and deleted within the batch exist in neither state
// and are skipped entirely). The probe certifies exactly those facts: at
// least k counted band members r-dominating the record throughout the region
// pin it below every top-k. For an insert the counted members are the final
// band minus the record itself — all live post-batch. For a delete they are
// the final band minus every record the batch inserted — all live pre-batch
// (a record live at both batch boundaries is live throughout; ids are never
// reused). Updates that need no probe are proven irrelevant by band depth. An
// insert ending outside the final band is classically dominated by at least
// MaxK post-batch records, so it belongs to no top-k set at any depth the
// engine serves. A delete probes iff the band reports the record in the band
// when the delete applied (Effect.InBand). One outside it had at least MaxK
// dominators at that moment; if fewer than k of them were live pre-batch, the
// rest are inserts of this batch that outscore the record everywhere — and
// among those, one that no other such insert r-dominates is in the final band
// with fewer than k r-dominators there (every one of them is a pre-batch
// record that r-dominates the deleted record too), so its insert probe evicts
// every entry the delete could have changed.
type affectsTest struct {
	rec        []float64
	exclude    int          // band id to skip (the inserted record itself), or -1
	excludeSet map[int]bool // batch-inserted ids to skip (delete probes), or nil
	recs       [][]float64
	ids        []int
}

func (a *affectsTest) affects(r *geom.Region, k int) bool {
	cnt := 0
	for i, m := range a.recs {
		id := a.ids[i]
		if id == a.exclude || a.excludeSet[id] {
			continue
		}
		if skyband.RDominates(m, a.rec, r) {
			cnt++
			if cnt >= k {
				return false
			}
		}
	}
	return true
}

// ApplyBatch applies a sequence of updates atomically with respect to
// queries: every query observes either the pre-batch or the post-batch
// candidate index, never an intermediate state. A validation error leaves
// the engine unchanged: the band maintainer validates every delete against
// liveness (including ids assigned by earlier inserts of the batch) before
// it mutates anything, and updates are serialized.
func (e *Engine) ApplyBatch(ops []UpdateOp) (*UpdateResult, error) {
	res, commit, err := e.ApplyBatchPipelined(ops)
	if err != nil {
		return nil, err
	}
	commit()
	return res, nil
}

// ApplyBatchPipelined is the two-stage form of ApplyBatch for callers that
// have their own per-batch work to overlap with cache invalidation — the
// durable registry runs its WAL append concurrently with stage two. Stage
// one (this call) validates, maintains the band, and reserves the batch's
// epoch under the update mutex; stage two (the returned commit) runs the
// invalidation probes, evicts affected cache entries, and publishes the
// index, all off the update mutex. The returned UpdateResult is final when
// this call returns, but queries observe the batch only once commit has
// published it.
//
// commit must be called exactly once per successful begin (it is idempotent,
// so extra calls are harmless, but a batch whose commit never runs blocks
// every later batch's commit: commits apply in begin order). Until commit
// returns, the probe window keeps any result computed meanwhile out of the
// cache, so a torn or pre-batch answer can be served but never resold.
func (e *Engine) ApplyBatchPipelined(ops []UpdateOp) (*UpdateResult, func(), error) {
	pb, err := e.beginBatch(ops)
	if err != nil {
		return nil, nil, err
	}
	return pb.res, pb.commit, nil
}

// pendingBatch is a begun-but-uncommitted batch: band maintenance has run
// and the epoch is reserved; the probe + invalidate + publish stage waits in
// commit.
type pendingBatch struct {
	e        *Engine
	ticket   uint64
	res      *UpdateResult
	fresh    *index // index to publish, or nil when the band is unchanged
	tests    []affectsTest
	entries  []cacheEntry // cache snapshot to probe (probe window open iff tests exist)
	window   bool         // updating was raised at begin
	dynStats skyband.DynamicStats
	once     sync.Once
}

func (pb *pendingBatch) commit() { pb.once.Do(func() { pb.e.commitBatch(pb) }) }

// beginBatch is stage one of a batch: everything that must see the dynamic
// structure runs here, under updMu.
func (e *Engine) beginBatch(ops []UpdateOp) (*pendingBatch, error) {
	sops := make([]skyband.Op, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case UpdateInsert:
			if CheckRecord(op.Record, e.dim) != nil {
				return nil, ErrBadUpdate
			}
			sops[i] = skyband.Op{Insert: true, Record: op.Record}
		case UpdateDelete:
			sops[i] = skyband.Op{ID: op.ID}
		default:
			return nil, ErrBadUpdate
		}
	}

	e.updMu.Lock()
	defer e.updMu.Unlock()

	// Pre-delete coordinates for the delete probes, captured before the one
	// call that applies every op (nil for an id that is not live yet — a
	// delete of this batch's own insert, which never reports InBand).
	var delRecs [][]float64
	if e.cache != nil {
		delRecs = make([][]float64, len(ops))
		for i, op := range ops {
			if op.Kind == UpdateDelete {
				delRecs[i] = e.band.Record(op.ID)
			}
		}
	}

	// One ApplyOps call validates the deletes against liveness and coalesces
	// insert→delete pairs of one record before mutating anything (so a bad
	// batch is a no-op), then applies the ops in order.
	ids, effs, err := e.band.ApplyOps(sops)
	if err != nil {
		if errors.Is(err, skyband.ErrUnknownID) || errors.Is(err, skyband.ErrDuplicateDelete) {
			return nil, ErrUnknownRecord
		}
		return nil, err
	}
	bandChanged := false
	for _, eff := range effs {
		bandChanged = bandChanged || eff.BandChanged
	}

	dynStats := e.band.Stats()

	// One final-band snapshot serves every probe and the published index. It
	// is taken only when the band changed: an update that needs a probe — an
	// insert that made the final band, a delete from the band — always
	// reports BandChanged (at the op itself, or at the promotion or rebuild
	// that brought the insert in).
	var fresh *index
	var tests []affectsTest
	if bandChanged {
		fresh = bandIndex(e.reservedEpoch+1, e.band)
	}
	if e.cache != nil && bandChanged {
		batchInserted := map[int]bool{}
		for i, op := range ops {
			if op.Kind == UpdateInsert {
				batchInserted[ids[i]] = true
			}
		}
		// Net inserts that made the final band (a coalesced insert is not
		// live, so never in it): probe excluding the record itself (other
		// batch inserts are live post-batch and may count).
		if len(batchInserted) > 0 {
			for i, id := range fresh.ids {
				if batchInserted[id] {
					tests = append(tests, affectsTest{rec: fresh.recs[i], exclude: id, recs: fresh.recs, ids: fresh.ids})
				}
			}
		}
		// Net deletes from the band: probe excluding every batch-inserted id
		// (those were not live pre-batch).
		for i, eff := range effs {
			if ops[i].Kind == UpdateDelete && eff.InBand {
				tests = append(tests, affectsTest{rec: delRecs[i], exclude: -1, excludeSet: batchInserted, recs: fresh.recs, ids: fresh.ids})
			}
		}
	}

	// Stage-one handoff. The cache-entry snapshot and `updating` raise still
	// happen here, before updMu is released, so a computation finishing
	// between begin and commit cannot add an entry the probe pass misses —
	// and the epoch reservation keeps results final at begin: the band
	// snapshot is already the post-batch state, so the epoch this batch will
	// publish is known even though the publish itself waits for commit.
	pb := &pendingBatch{e: e, dynStats: dynStats, tests: tests, fresh: fresh}
	if bandChanged {
		e.reservedEpoch++
	}
	e.nextTicket++
	pb.ticket = e.nextTicket
	if len(tests) > 0 {
		e.mu.Lock()
		pb.entries = e.cache.Snapshot()
		e.updating++
		pb.window = true
		e.mu.Unlock()
	}
	pb.res = &UpdateResult{
		IDs:          ids,
		Epoch:        e.reservedEpoch,
		Live:         dynStats.Live,
		SupersetSize: dynStats.SupersetSize,
		ShadowSize:   dynStats.ShadowSize,
	}
	return pb, nil
}

// commitBatch is stage two: probe, invalidate, publish. The r-dominance
// probes (cache regions × deltas × band) run outside every engine lock so
// concurrent queries — cache hits especially — never queue behind them, and
// so a pipelined caller's own stage-two work (the registry's WAL append)
// overlaps them. Ordering makes the window invisible:
//
//  1. Begin snapshotted the resident entries and raised `updating`, so a
//     computation finishing mid-window cannot add an entry the snapshot
//     missed.
//  2. Probe outside the locks. Hits served meanwhile come from pre-update
//     entries while the epoch is still the old one — the batch has not been
//     published, so those answers are simply "before the update".
//  3. Under mu, evict the affected keys and only then publish the new epoch:
//     no query can observe the new epoch while a stale entry is still
//     hittable, and entries cached after publication pass finish's
//     current-epoch check, i.e. reflect this batch.
//
// The commit turnstile runs step 3 in begin (ticket) order, so when batches
// overlap, epochs still publish monotonically and every batch's eviction
// lands before any later epoch becomes visible.
func (e *Engine) commitBatch(pb *pendingBatch) {
	affected, groups := runProbes(pb.entries, pb.tests)

	e.commitMu.Lock()
	for e.lastCommitted != pb.ticket-1 {
		e.commitCond.Wait()
	}
	e.mu.Lock()
	e.stats.UpdateBatches++
	e.stats.DynamicStats = pb.dynStats
	if groups > 0 {
		e.stats.ProbeBatches++
		e.stats.ProbesSaved += uint64(len(pb.entries)-groups) * uint64(len(pb.tests))
	}
	if len(affected) > 0 {
		// InvalidateKeys (not EvictKeys) so the admission policy learns which
		// classes this update stream keeps killing.
		e.stats.Invalidations += uint64(e.cache.InvalidateKeys(affected))
	}
	if pb.fresh != nil {
		e.idx.Store(pb.fresh)
	}
	if pb.window {
		e.updating--
	}
	e.mu.Unlock()
	e.lastCommitted = pb.ticket
	e.commitCond.Broadcast()
	e.commitMu.Unlock()
}

// probeGroup is one batched invalidation probe: the cache entries that share
// a probe-relevant shape (same k, geometrically identical region — the
// probeGroupID projection of their keys). Every delta's affects verdict is a
// function of (region, k) only, so one band pass settles the whole group,
// however many variants, ablation settings, and worker counts cache entries
// for that shape.
type probeGroup struct {
	region *geom.Region
	k      int
	keys   []string
}

// runProbes evaluates a batch's classified deltas against the snapshot of
// resident cache entries, returning the keys whose answers the batch may
// have changed plus the number of distinct (region, k) groups probed. Cost
// scales with groups × deltas × band rather than entries × deltas × band.
func runProbes(entries []cacheEntry, tests []affectsTest) (affected []string, groups int) {
	if len(entries) == 0 || len(tests) == 0 {
		return nil, 0
	}
	byShape := make(map[string]*probeGroup, len(entries))
	order := make([]*probeGroup, 0, len(entries))
	for _, ent := range entries {
		gid := probeGroupID(ent.Key)
		g := byShape[gid]
		if g == nil {
			g = &probeGroup{region: ent.Region, k: ent.K}
			byShape[gid] = g
			order = append(order, g)
		}
		g.keys = append(g.keys, ent.Key)
	}
	counts := make([]int, len(tests))
	for _, g := range order {
		if batchAffects(tests, g.region, g.k, counts) {
			affected = append(affected, g.keys...)
		}
	}
	return affected, len(order)
}

// batchAffects reports whether any of the batch's deltas can change a cached
// (region, k) answer — the disjunction of the per-delta affects probes,
// computed in one pass over the shared final-band snapshot instead of one
// pass per delta. counts is caller-provided scratch of len(tests); per-delta
// r-dominator tallies advance together as the band is walked, and the pass
// exits as soon as every delta has accumulated its k certifying dominators
// (all survive) or the band is exhausted with some delta short of k (that
// delta may surface in, or vanish from, a top-k set somewhere in the
// region — the entry must go).
func batchAffects(tests []affectsTest, r *geom.Region, k int, counts []int) bool {
	for i := range counts {
		counts[i] = 0
	}
	remaining := len(tests)
	// All of a batch's tests share one band snapshot (see beginBatch).
	recs, ids := tests[0].recs, tests[0].ids
	for i, m := range recs {
		id := ids[i]
		for j := range tests {
			if counts[j] >= k {
				continue
			}
			t := &tests[j]
			if id == t.exclude || t.excludeSet[id] {
				continue
			}
			if skyband.RDominates(m, t.rec, r) {
				counts[j]++
				if counts[j] >= k {
					remaining--
					if remaining == 0 {
						return false
					}
				}
			}
		}
	}
	return true
}

// Do answers one request, consulting the cache, deduplicating against
// identical in-flight queries, and otherwise computing on a pooled worker.
func (e *Engine) Do(ctx context.Context, req Request) (*Result, error) {
	if err := e.validate(req); err != nil {
		return nil, err
	}
	if e.cfg.QueryTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.QueryTimeout)
			defer cancel()
		}
	}
	key := fingerprint(req.Variant, req.K, req.Region, req.Opts)

	// A leader whose snapshot is superseded mid-refinement abandons its
	// flight and re-enters the election below, so identical queries at the
	// fresh epoch coalesce onto one new computation. The retry budget
	// guards the no-deadline case against update storms: once exhausted,
	// the refinement runs to completion on whatever snapshot it has.
	supersedeRetries := 3
	derivedTried := false
	for {
		// Election: answer from the cache, join an identical in-flight
		// computation, or become the leader for the current epoch. Flights
		// are scoped to an epoch so late arrivals never coalesce onto a
		// computation over a superseded candidate index; the cache key is
		// epoch-free because precise invalidation keeps surviving entries
		// exact across epochs.
		// One idx load serves both the flight key and the computation, so a
		// flight is always keyed to the epoch its leader actually computes
		// against — an update landing in between makes the supersede hook
		// fire on the first poll and the leader re-elect, rather than
		// computing the new epoch's answer outside its single-flight group.
		var fl *flight
		var flKey string
		var ix *index
		for fl == nil {
			ix = e.idx.Load()
			flKey = flightKey(ix.epoch, key)
			e.mu.Lock()
			if e.cache != nil {
				if res, ok := e.cache.Get(key); ok {
					e.stats.Hits++
					e.stats.Queries++
					e.mu.Unlock()
					hit := *res
					hit.CacheHit = true
					return &hit, nil
				}
				// Derived-answer fast path, before pool dispatch: an exact
				// miss whose region sits inside a cached UTK2 region is
				// answered by cell clipping — no worker slot, no flight, no
				// RSA/JAA work. The source was resident under the mutex, so
				// the answer is at worst a consistent pre-update state (the
				// same guarantee exact hits and flight waiters get); caching
				// it is gated below on the source surviving the clipping
				// window untouched.
				if !derivedTried {
					if src, srcKey, ok := e.cache.FindContaining(req); ok {
						e.mu.Unlock()
						derivedTried = true
						if res := deriveClipped(req, src); res != nil {
							e.mu.Lock()
							e.stats.DerivedHits++
							e.stats.Queries++
							// Cache the derived entry only if no invalidation
							// probe window is open and the source is still the
							// resident entry (pointer identity): a surviving
							// source's probe certificate covers every region
							// it contains, so the derived answer is exact for
							// the current dataset.
							if e.updating == 0 {
								if cur, ok := e.cache.Peek(srcKey); ok && cur == src {
									adm, ev, costly := e.cache.Add(key, req, res)
									if !adm {
										e.stats.AdmissionSkips++
									}
									if ev {
										e.stats.Evictions++
									}
									if costly {
										e.stats.CostEvictions++
									}
								}
							}
							e.mu.Unlock()
							hit := *res
							hit.CacheHit = true
							return &hit, nil
						}
						continue // defensive: derivation failed, compute instead
					}
				}
			}
			if other, ok := e.inflight[flKey]; ok {
				e.mu.Unlock()
				res, err := e.wait(ctx, other)
				if errors.Is(err, errAborted) {
					continue // the leader never finished; elect a new leader
				}
				return res, err
			}
			fl = &flight{done: make(chan struct{})}
			e.inflight[flKey] = fl
			e.mu.Unlock()
		}

		// Dispatch through the executor. Run rejects immediately at the
		// queue bound (saturation → backpressure) and revokes the task if
		// the context dies while it is still queued; once the computation
		// has started, the deadline is honored from inside via the Cancel
		// hook.
		var res *Result
		var err error
		runErr := e.pool.Run(ctx, func() {
			e.mu.Lock()
			e.stats.InFlight++
			e.mu.Unlock()
			res, err = e.compute(ctx, req, ix, supersedeRetries > 0)
			e.mu.Lock()
			e.stats.InFlight--
			e.mu.Unlock()
		})
		if runErr != nil {
			e.finish(flKey, key, fl, nil, errAborted, req)
			e.mu.Lock()
			if errors.Is(runErr, exec.ErrSaturated) {
				e.stats.Saturated++
				runErr = ErrSaturated
			} else {
				e.stats.Rejected++
			}
			e.mu.Unlock()
			return nil, runErr
		}

		if errors.Is(err, core.ErrCanceled) {
			// Either way the waiters re-elect rather than inheriting this
			// leader's fate.
			e.finish(flKey, key, fl, nil, errAborted, req)
			if ctx.Err() == nil && e.idx.Load() != ix {
				supersedeRetries--
				continue // superseded: re-elect at the fresh epoch
			}
			err = ctx.Err()
			if err == nil {
				// Defensive: a cancel verdict with a live context and a
				// current snapshot should not happen.
				err = core.ErrCanceled
			}
			e.mu.Lock()
			e.stats.Rejected++
			e.mu.Unlock()
			return nil, err
		}
		e.finish(flKey, key, fl, res, err, req)
		e.mu.Lock()
		e.stats.Misses++
		e.stats.Queries++
		e.mu.Unlock()
		return res, err
	}
}

// DoBatch answers a batch of requests concurrently (bounded by the worker
// pool), returning one result or error per request, index-aligned.
func (e *Engine) DoBatch(ctx context.Context, reqs []Request) ([]*Result, []error) {
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			results[i], errs[i] = e.Do(ctx, req)
		}(i, req)
	}
	wg.Wait()
	return results, errs
}

// Stats returns a snapshot of the engine counters. The dynamic-skyband
// counters reflect the last completed update batch — Stats never waits on an
// in-progress update, so monitoring stays responsive exactly when updates
// are slow.
func (e *Engine) Stats() Stats {
	epoch := e.idx.Load().epoch
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Epoch = epoch
	st.Queued = e.pool.Queued()
	if e.cache != nil {
		st.CacheEntries = e.cache.Len()
	}
	return st
}

func (e *Engine) validate(req Request) error {
	if req.K <= 0 {
		return core.ErrBadK
	}
	if req.K > e.cfg.MaxK {
		return ErrKTooLarge
	}
	if req.Region == nil {
		return ErrNilRegion
	}
	if req.Region.Dim() != e.dim-1 {
		return core.ErrDimMismatch
	}
	return nil
}

// compute is the warm query path: rebuild only the region-specific
// r-dominance graph, filtering over the maintained superset snapshot instead
// of the whole dataset, then refine. When abortOnSupersede is set, the
// refinement is additionally canceled as soon as the snapshot is superseded
// by an update (Do then retries on the fresh one).
func (e *Engine) compute(ctx context.Context, req Request, ix *index, abortOnSupersede bool) (*Result, error) {
	st := &core.Stats{}
	opts := req.Opts
	// Intra-query parallelism (Opts.Workers > 1) fans out on the engine's
	// own executor, so inter-query and intra-query concurrency share one
	// worker budget; decomposed queries share the engine's split cost model.
	opts.Pool = e.pool
	opts.Split = e.split
	done := ctx.Done()
	opts.Cancel = func() bool {
		select {
		case <-done:
			return true
		default:
		}
		return abortOnSupersede && e.idx.Load() != ix
	}
	start := time.Now()
	n := sort.SearchInts(ix.counts, req.K) // the req.K-skyband is the prefix [:n]
	g := skyband.ScanGraphWith(ix.cols.Prefix(n), ix.recs[:n], ix.ids[:n], req.Region, req.K)
	st.FilterDuration = time.Since(start)
	res := &Result{Epoch: ix.epoch}
	switch req.Variant {
	case UTK1:
		ids, err := core.RSAFromGraph(g, req.Region, req.K, opts, st)
		if err != nil {
			return nil, err
		}
		sort.Ints(ids)
		res.IDs = ids
	case UTK2:
		cells, err := core.JAAFromGraph(g, req.Region, req.K, opts, st)
		if err != nil {
			return nil, err
		}
		res.Cells = cells
	default:
		return nil, errors.New("engine: unknown variant")
	}
	res.Stats = *st
	// The measured end-to-end compute time is the entry's recompute cost:
	// what the cache would lose by evicting it.
	res.Cost = st.FilterDuration + st.RefineDuration
	return res, nil
}

// finish publishes the flight outcome, caches fresh successes, and wakes
// waiters. Results computed against a superseded snapshot are served to
// their waiters (they observed a consistent pre-update state) but never
// cached, and nothing is cached while an update's invalidation probes are
// between their cache snapshot and their eviction — either way the scan
// would not see the entry.
func (e *Engine) finish(flKey, key string, fl *flight, res *Result, err error, req Request) {
	fl.res, fl.err = res, err
	e.mu.Lock()
	delete(e.inflight, flKey)
	if err == nil && e.cache != nil && e.updating == 0 && res.Epoch == e.idx.Load().epoch {
		adm, ev, costly := e.cache.Add(key, req, res)
		if !adm {
			e.stats.AdmissionSkips++
		}
		if ev {
			e.stats.Evictions++
		}
		if costly {
			e.stats.CostEvictions++
		}
	}
	e.mu.Unlock()
	close(fl.done)
}

// wait blocks until the deduplicated computation resolves or the caller's
// context expires.
func (e *Engine) wait(ctx context.Context, fl *flight) (*Result, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		e.mu.Lock()
		e.stats.Rejected++
		e.mu.Unlock()
		return nil, ctx.Err()
	}
	if errors.Is(fl.err, errAborted) {
		// Not an outcome: the caller re-elects a leader and will be counted
		// by whatever path finally serves it.
		return nil, fl.err
	}
	e.mu.Lock()
	e.stats.Shared++
	e.stats.Queries++
	e.mu.Unlock()
	return fl.res, fl.err
}

// flightKey scopes a cache fingerprint to an index epoch.
func flightKey(epoch uint64, key string) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], epoch)
	return string(b[:]) + key
}
