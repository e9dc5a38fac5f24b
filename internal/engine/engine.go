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
//     k ≤ MaxK is a prefix of it — of its ids, its records and the count
//     levels of its one block layout — and nothing per depth is derived or
//     stored. Each query then filters its depth's prefix
//     (skyband.ScanGraphWith): the paper's branch-and-bound prunes a group of
//     records by its score bound, and here the groups are the layout's
//     blocks — kd leaves of ≤ 8 rows within each count level, split once per
//     epoch — instead of the nodes of an R-tree over the whole dataset. The
//     interval prefilter scores only the blocks that can reach the running
//     k-th largest minimum score, exactly in float64, then a sort-and-sweep
//     builds the graph over the few survivors. The engine builds and holds
//     no R-tree.
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
//     (variant, k, region) fingerprint, with single-flight deduplication so
//     concurrent identical queries compute once and share the result.
//     Eviction is plain LRU, and an exact miss whose region lies inside a
//     cached UTK2 region is answered by cell clipping (see deriveClipped)
//     instead of recomputing: exact, with zero refinement work.
//  4. A slot gate with per-query deadlines: a miss computes on its caller's
//     goroutine once it holds one of Config.Workers slots, and waits for one
//     in a FIFO queue otherwise. The deadline is threaded into the refinement
//     recursion via core.Options.Cancel, so an expired query frees its slot
//     promptly instead of running to completion. A configurable queue bound
//     turns overload into ErrSaturated backpressure instead of unbounded
//     queueing.
//
// The band maintainer is one skyband.Dynamic over the whole dataset, touched
// only under the update mutex; queries read the immutable index each
// band-changing batch publishes.
//
// The package is the one layer the serving tiers call: the registry builds,
// restores and updates Engines, and the HTTP server sends each query to Do
// and encodes the Result as it lies. Config owns the configuration's
// defaults and its JSON keys (a durable store's manifest embeds it), and
// CopyRecords and CheckRecord own the rules for a usable dataset and record;
// the root package's EngineConfig is an alias of Config.
package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rescache"
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
	// ErrSaturated reports that the slot queue was at its configured bound
	// (Config.MaxQueued) when the query arrived — the backpressure signal
	// serving layers turn into 429 responses.
	ErrSaturated = errors.New("engine: query slot queue saturated")
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

// errAborted marks a flight whose leader gave up (saturation or context
// expiry) before the computation finished; waiters react by electing a new
// leader.
var errAborted = errors.New("engine: in-flight computation aborted")

// Config is the one declaration of an engine's configuration: the
// library's EngineConfig and the registry's Options are aliases of it, and a
// durable store's manifest entry embeds it, so its JSON keys are the
// manifest's.
type Config struct {
	// MaxK is the largest top-k depth the engine serves (required, positive,
	// at most 2²⁴−1). The maintained skyband superset is computed at this
	// depth; queries with K ≤ MaxK reuse it instead of refiltering the whole
	// dataset.
	MaxK int `json:"max_k"`
	// CacheEntries bounds the result cache (LRU eviction with a containment
	// index; see Stats.DerivedHits/Evictions). Zero selects
	// DefaultCacheEntries; negative values disable caching. Under sustained
	// updates the cache additionally refuses admission for query classes
	// whose entries are invalidated faster than they are hit
	// (Stats.AdmissionSkips).
	CacheEntries int `json:"cache_entries,omitempty"`
	// Workers is the number of slots: at most this many queries compute at a
	// time, each on its caller's goroutine and refining sequentially. Values
	// below 1 default to runtime.GOMAXPROCS(0).
	Workers int `json:"workers,omitempty"`
	// MaxQueued bounds how many queries may wait for a slot before new
	// arrivals are rejected with ErrSaturated — the backpressure signal
	// serving tiers map to 429 responses: 0 means unbounded (no
	// backpressure), negative means no queue at all (reject whenever every
	// slot is taken), positive is the bound itself.
	MaxQueued int `json:"max_queued,omitempty"`
	// QueryTimeout, when positive, is the deadline applied to queries whose
	// context carries none. The deadline covers queueing for a slot,
	// waiting on a deduplicated in-flight computation, and — through the
	// cancellation hook threaded into the refinement recursion — the
	// computation itself.
	QueryTimeout time.Duration `json:"query_timeout_ns,omitempty"`
}

// DefaultCacheEntries is the result-cache capacity used when
// Config.CacheEntries is zero.
const DefaultCacheEntries = 256

// maxDim is the largest data dimensionality an engine serves. A box query
// region has 2^(d−1) corners, built before anything else looks at it; the
// paper's experiments stop at d = 7 and the largest real dataset here (NBA)
// has d = 8.
const maxDim = 12

// CopyRecords is the one definition of a usable dataset: at least one
// record, one shared dimensionality 2 ≤ d ≤ 12, and every record usable by
// CheckRecord. It returns a deep copy as capped sub-slices of one slab — one
// allocation instead of n. An engine built over the copy keeps the whole slab
// alive until the engine is dropped, however many of the initial records it
// has deleted.
func CopyRecords(records [][]float64) ([][]float64, error) {
	if len(records) == 0 {
		return nil, errors.New("utk: empty dataset")
	}
	d := len(records[0])
	if d < 2 {
		return nil, errors.New("utk: records must have at least 2 attributes")
	}
	if d > maxDim {
		return nil, fmt.Errorf("utk: records have %d attributes, at most %d are served", d, maxDim)
	}
	cp, slab := make([][]float64, len(records)), make([]float64, 0, len(records)*d)
	for i, rec := range records {
		if err := CheckRecord(rec, d); err != nil {
			return nil, fmt.Errorf("utk: record %d %w", i, err)
		}
		slab = append(slab, rec...)
		cp[i] = slab[i*d : (i+1)*d : (i+1)*d]
	}
	return cp, nil
}

// Request is one UTK query addressed to an Engine.
type Request struct {
	Variant Variant
	K       int
	Region  *geom.Region
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
	// insert/delete counts and the maintenance counters.
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
	// Evictions counts capacity evictions. Invalidations counts cache
	// entries evicted because an update could affect them; AdmissionSkips
	// counts results the cache's update-rate-aware admission policy
	// refused. Rejected counts queries that gave up (deadline or
	// cancellation) before obtaining a result. Saturated counts queries
	// refused at the slot queue's bound (Config.MaxQueued).
	Evictions      uint64
	Invalidations  uint64
	AdmissionSkips uint64
	Rejected       uint64
	Saturated      uint64
	// InFlight is the number of slots taken (queries computing right now);
	// Queued is the number of queries waiting for a slot.
	InFlight int
	Queued   int
	// CacheEntries is the current cache population.
	CacheEntries int
	// Epoch is the current index version; it advances whenever an update
	// changes the candidate superset.
	Epoch uint64
	// UpdateBatches counts applied update batches. ProbeBatches counts those
	// that ran a cache-invalidation probe pass.
	UpdateBatches uint64
	ProbeBatches  uint64
	// MaxK and Workers echo the effective configuration.
	MaxK    int
	Workers int
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

// index is one epoch of the candidate lists: the MaxK-skyband with its exact
// counts, in the band's count-major order, and its block layout for the
// interval prefilter (see skyband.Blocks). The k-skyband is the prefix of the
// entries with count < k — of the ids, the records and the layout's count
// levels. The lists are immutable and shared read-only by every query
// against the epoch. The layout is published with one block per count
// level, which costs a publication about as much as copying the rows; once
// the epoch's filter passes have evaluated as many rows as cutting the
// levels into kd leaves costs (Blocks.SplitCost), the query that crosses
// that count splits them once and swaps the layout. A split of
// update_mix's 873-row band takes ≈ 0.3–0.4 ms on a 2-core box, more than
// that workload's whole update_p50_us (≈ 280 µs): paid at every
// publication, or by the first query of every epoch, it would cost more
// than it saves, since most of its epochs serve a few queries and go.
type index struct {
	epoch  uint64
	ids    []int
	recs   [][]float64
	counts []int

	blocks    atomic.Pointer[skyband.Blocks]
	scanned   atomic.Int64 // rows the filter passes over the unsplit layout evaluated
	splitting atomic.Bool  // set by the one query that splits
}

// bandIndex snapshots the band (see skyband.Dynamic.Band; the slices are
// immutable from here on) into a new index at the given epoch.
func bandIndex(epoch uint64, b *skyband.Dynamic) *index {
	ids, recs, counts := b.Band()
	ix := &index{epoch: epoch, ids: ids, recs: recs, counts: counts}
	ix.blocks.Store(skyband.NewBlocks(recs, counts))
	return ix
}

// filter builds the region's r-dominance graph over the k-skyband, which is
// the prefix [:n] of the index, and splits the layout when its time has come
// (see index).
func (ix *index) filter(r *geom.Region, k int) *skyband.Graph {
	n := sort.SearchInts(ix.counts, k)
	b := ix.blocks.Load()
	g, rows := skyband.ScanGraphWith(b, ix.recs[:n], ix.ids[:n], r, k)
	if cost := b.SplitCost(); cost > 0 && ix.scanned.Add(int64(rows)) >= int64(cost) && ix.splitting.CompareAndSwap(false, true) {
		ix.blocks.Store(b.Split())
	}
	return g
}

// flight is one in-progress computation that concurrent identical queries
// rendezvous on.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// Engine serves UTK queries over one dataset and applies incremental
// updates to it. It is safe for concurrent use.
type Engine struct {
	cfg Config
	dim int

	// updMu serializes updates and guards band, the one maintainer of the
	// MaxK-skyband (not safe for concurrent use). A batch holds it from begin
	// to the end of its commit, so one batch at a time is in flight. Queries
	// never take it: they read the epoch-versioned index snapshot below.
	updMu sync.Mutex
	band  *skyband.Dynamic

	// idx is the current index snapshot; updates that change the superset
	// publish a fresh one with a bumped epoch.
	idx atomic.Pointer[index]

	// mu guards the cache, the flights, the slot gate and stats. stats holds
	// every counter, incremented in place; its DynamicStats is refreshed at
	// the end of each batch, MaxK/Workers are fixed at construction, and
	// Epoch, Queued and CacheEntries are filled only in the copy Stats
	// returns. The gate is stats.InFlight (slots taken) plus waiting, the
	// FIFO of queued leaders (see acquire).
	mu       sync.Mutex
	cache    *rescache.Cache[*Result]
	stats    Stats
	updating int // open invalidation-probe windows; finish skips caching while > 0
	inflight map[string]*flight
	waiting  []chan struct{}
}

// New builds an engine over a copy of the records (CopyRecords' rules),
// record i getting id i.
func New(records [][]float64, cfg Config) (*Engine, error) {
	records, err := CopyRecords(records)
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// The k-skyband at MaxK is the one region-independent superset of every
	// r-skyband the engine can be asked for; the dynamic structure maintains
	// it under updates.
	dyn, err := skyband.NewDynamic(records, cfg.MaxK)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, dyn, len(records[0]), 0, 0), nil
}

// withDefaults validates MaxK and resolves the defaulted fields: Workers,
// and CacheEntries (0 becomes DefaultCacheEntries, a negative value 0 — no
// cache).
func (cfg Config) withDefaults() (Config, error) {
	if cfg.MaxK <= 0 || cfg.MaxK > maxK {
		return cfg, core.ErrBadK
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = DefaultCacheEntries
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0
	}
	return cfg, nil
}

// newEngine is the one place an Engine is assembled — fresh or restored —
// so a field added later cannot be missed on one of the paths. cfg must have
// been through withDefaults; epoch and batches seed the publish and batch
// counters (zero for a fresh engine).
func newEngine(cfg Config, b *skyband.Dynamic, dim int, epoch, batches uint64) *Engine {
	e := &Engine{
		cfg:      cfg,
		dim:      dim,
		band:     b,
		inflight: make(map[string]*flight),
		stats: Stats{
			DynamicStats:  b.Stats(),
			UpdateBatches: batches,
			MaxK:          cfg.MaxK,
			Workers:       cfg.Workers,
		},
	}
	if cfg.CacheEntries > 0 {
		e.cache = rescache.New[*Result](cfg.CacheEntries)
	}
	e.idx.Store(bandIndex(epoch, b))
	return e
}

// SupersetSize returns the current size of the candidate superset.
func (e *Engine) SupersetSize() int { return len(e.idx.Load().ids) }

// Band returns the published band: its ids and their exact dominator
// counts, count-major with ties by id. The slices are the index's; do not
// mutate them.
func (e *Engine) Band() (ids, counts []int) {
	ix := e.idx.Load()
	return ix.ids, ix.counts
}

// MaxK returns the largest supported top-k depth.
func (e *Engine) MaxK() int { return e.cfg.MaxK }

// Dim returns the data dimensionality.
func (e *Engine) Dim() int { return e.dim }

// Epoch returns the current index version.
func (e *Engine) Epoch() uint64 { return e.idx.Load().epoch }

// UpdateResult reports the outcome of one ApplyBatch: the per-op ids and
// the engine state as published by this batch (not a later one). Under
// ApplyBatchPipelined the IDs are final at begin and the other fields are
// filled in by commit.
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
// (a record live at both batch boundaries is live throughout). Ids are
// assigned in sequence and never reused, so the batch's inserts are exactly
// the ids from its first new id on. Updates that need no probe are proven
// irrelevant by band depth. An insert ending outside the final band is
// classically dominated by at least MaxK post-batch records, so it belongs to
// no top-k set at any depth the engine serves. A delete probes iff the band
// reports the record in the band when the delete applied (Effect.InBand).
// One outside it had at least MaxK dominators at that moment; if fewer than k of them were live pre-batch, the
// rest are inserts of this batch that outscore the record everywhere — and
// among those, one that no other such insert r-dominates is in the final band
// with fewer than k r-dominators there (every one of them is a pre-batch
// record that r-dominates the deleted record too), so its insert probe evicts
// every entry the delete could have changed.
type affectsTest struct {
	rec     []float64
	exclude int // band id to skip (the inserted record itself), or -1
	// below skips every band id from it on: the batch's first new id for a
	// delete probe, math.MaxInt for an insert probe.
	below int
	recs  [][]float64
	ids   []int
}

// skips reports whether the band member id does not count for the probe.
func (a *affectsTest) skips(id int) bool { return id == a.exclude || id >= a.below }

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
// have their own per-batch work to overlap with applying it — the durable
// registry runs its WAL append concurrently with stage two. Stage one (this
// call) validates the batch and fixes its ids; stage two (the returned
// commit) maintains the band, runs the invalidation probes, evicts affected
// cache entries, and publishes the index. When this call returns, the
// result's IDs are final and nothing has changed: Epoch still reports the
// pre-batch epoch, which is the one the batch applies on. Everything else in
// the result (Epoch, Live, SupersetSize, ShadowSize) is filled in by commit,
// after the publish, and queries observe the batch only from then on.
//
// One batch is in flight at a time: the update mutex is held from this call
// until commit returns, so the next begin waits for this commit (the
// registry serializes a dataset's updates anyway). commit must therefore be
// called exactly once per successful begin; it is idempotent, so extra calls
// are harmless. While commit probes, the probe window keeps any result
// computed meanwhile out of the cache, so a pre-batch answer can be served
// but never resold.
func (e *Engine) ApplyBatchPipelined(ops []UpdateOp) (*UpdateResult, func(), error) {
	pb, err := e.beginBatch(ops)
	if err != nil {
		return nil, nil, err
	}
	return pb.res, pb.commit, nil
}

// pendingBatch is a begun-but-uncommitted batch: it has validated, its ids
// are fixed in res, and the update mutex is held; band maintenance, the
// probes and the publish wait in commit, which records the index it
// published in fresh (nil when the band did not change). firstNew is the id
// the batch's first insert is assigned: every id from there on is one of its
// inserts.
type pendingBatch struct {
	e        *Engine
	ops      []UpdateOp
	plan     *skyband.Plan
	firstNew int
	res      *UpdateResult
	fresh    *index
	once     sync.Once
}

func (pb *pendingBatch) commit() { pb.once.Do(func() { pb.e.commitBatch(pb) }) }

// beginBatch is stage one of a batch: the record checks, then, under updMu,
// the band's plan (delete liveness, duplicate deletes, coalescing), which
// fixes the ids without mutating anything — a batch that fails it leaves the
// engine unchanged. On success updMu stays held for commitBatch to release.
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
	firstNew := e.band.NextID()
	plan, err := e.band.Plan(sops)
	if err != nil {
		e.updMu.Unlock()
		if errors.Is(err, skyband.ErrUnknownID) || errors.Is(err, skyband.ErrDuplicateDelete) {
			return nil, ErrUnknownRecord
		}
		return nil, err
	}
	return &pendingBatch{e: e, ops: ops, plan: plan, firstNew: firstNew, res: &UpdateResult{IDs: plan.IDs()}}, nil
}

// commitBatch is stage two: apply the plan to the band, probe, invalidate,
// publish, fill in the result, and release updMu. The r-dominance probes
// (cache regions × deltas × band) run outside the query-side lock so
// concurrent queries — cache hits especially — never queue behind them.
// Ordering makes the window invisible:
//
//  1. Under mu, snapshot the resident entries and raise `updating`, so a
//     computation finishing mid-window cannot add an entry the snapshot
//     missed.
//  2. Probe outside mu. Hits served meanwhile come from pre-update entries
//     while the epoch is still the old one — the batch has not been
//     published, so those answers are simply "before the update".
//  3. Under mu, evict the affected keys and only then publish the new epoch:
//     no query can observe the new epoch while a stale entry is still
//     hittable, and entries cached after publication pass finish's
//     current-epoch check, i.e. reflect this batch.
func (e *Engine) commitBatch(pb *pendingBatch) {
	defer e.updMu.Unlock()
	ops := pb.ops

	// Pre-delete coordinates for the delete probes, captured before the plan
	// applies (nil for an id that is not live yet — a delete of this batch's
	// own insert, which never reports InBand).
	var delRecs [][]float64
	if e.cache != nil {
		delRecs = make([][]float64, len(ops))
		for i, op := range ops {
			if op.Kind == UpdateDelete {
				delRecs[i] = e.band.Record(op.ID)
			}
		}
	}
	effs := e.band.Apply(pb.plan)
	bandChanged := false
	for _, eff := range effs {
		bandChanged = bandChanged || eff.BandChanged
	}
	dynStats := e.band.Stats()

	// One final-band snapshot serves every probe and the published index. It
	// is taken only when the band changed: an update that needs a probe — an
	// insert that made the final band, a delete from the band — always
	// reports BandChanged (at the op itself, or at the promotion that brought
	// the insert in).
	var tests []affectsTest
	epoch := e.idx.Load().epoch
	if bandChanged {
		epoch++
		pb.fresh = bandIndex(epoch, e.band)
	}
	if e.cache != nil && bandChanged {
		fresh := pb.fresh
		// Net inserts that made the final band (a coalesced insert is not
		// live, so never in it): probe excluding the record itself (other
		// batch inserts are live post-batch and may count).
		for i, id := range fresh.ids {
			if id >= pb.firstNew {
				tests = append(tests, affectsTest{rec: fresh.recs[i], exclude: id, below: math.MaxInt, recs: fresh.recs, ids: fresh.ids})
			}
		}
		// Net deletes from the band: probe excluding every batch-inserted id
		// (those were not live pre-batch).
		for i, eff := range effs {
			if ops[i].Kind == UpdateDelete && eff.InBand {
				tests = append(tests, affectsTest{rec: delRecs[i], exclude: -1, below: pb.firstNew, recs: fresh.recs, ids: fresh.ids})
			}
		}
	}

	var entries []rescache.Entry
	if len(tests) > 0 {
		e.mu.Lock()
		entries = e.cache.Snapshot()
		e.updating++
		e.mu.Unlock()
	}
	affected := runProbes(entries, tests)

	e.mu.Lock()
	e.stats.UpdateBatches++
	e.stats.DynamicStats = dynStats
	if len(entries) > 0 {
		e.stats.ProbeBatches++
	}
	if len(affected) > 0 {
		// InvalidateKeys charges the admission ledger, so the policy learns
		// which classes this update stream keeps killing.
		e.stats.Invalidations += uint64(e.cache.InvalidateKeys(affected))
	}
	if pb.fresh != nil {
		e.idx.Store(pb.fresh)
	}
	if len(tests) > 0 {
		e.updating--
	}
	e.mu.Unlock()

	pb.res.Epoch = epoch
	pb.res.Live = dynStats.Live
	pb.res.SupersetSize = dynStats.SupersetSize
	pb.res.ShadowSize = dynStats.ShadowSize
}

// runProbes evaluates a batch's classified deltas against the snapshot of
// resident cache entries (begin takes it only when there are deltas) and
// returns the keys whose answers the batch may have changed: one band pass
// per entry settles every delta at once (see batchAffects).
func runProbes(entries []rescache.Entry, tests []affectsTest) (affected []string) {
	counts := make([]int, len(tests))
	for _, ent := range entries {
		if batchAffects(tests, ent.Region, ent.K, counts) {
			affected = append(affected, ent.Key)
		}
	}
	return affected
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
			if t.skips(id) {
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
// identical in-flight queries, and otherwise computing on the caller's
// goroutine once the slot gate admits it.
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
	key := fingerprint(req.Variant, req.K, req.Region)

	derivedTried := false
	for {
		// Election: answer from the cache, join an identical in-flight
		// computation, or become the leader for the current epoch. Flights
		// are scoped to an epoch so late arrivals never coalesce onto a
		// computation over a superseded candidate index; the cache key is
		// epoch-free because precise invalidation keeps surviving entries
		// exact across epochs. One idx load serves both the flight key and
		// the computation, so a flight is always keyed to the epoch its
		// leader computes against.
		ix := e.idx.Load()
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
			// Derived-answer fast path, before the gate: an exact miss whose
			// region sits inside a cached UTK2 region is answered by cell
			// clipping — no slot, no flight, no RSA/JAA work. The source was
			// resident under the mutex, so the answer is at worst a
			// consistent pre-update state (the same guarantee exact hits and
			// flight waiters get); caching it is gated below on the source
			// surviving the clipping window untouched.
			if !derivedTried {
				if src, srcKey, ok := e.cache.FindContaining(uint32(UTK2), req.K, req.Region); ok {
					e.mu.Unlock()
					derivedTried = true
					if res := deriveClipped(req, src); res != nil {
						e.mu.Lock()
						e.stats.DerivedHits++
						e.stats.Queries++
						// Cache the derived entry only if no invalidation
						// probe window is open and the source is still the
						// resident entry (pointer identity): a surviving
						// source's probe certificate covers every region it
						// contains, so the derived answer is exact for the
						// current dataset.
						if e.updating == 0 {
							if cur, ok := e.cache.Peek(srcKey); ok && cur == src {
								e.admit(key, req, res)
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
		flKey := flightKey(ix.epoch, key)
		if other, ok := e.inflight[flKey]; ok {
			e.mu.Unlock()
			res, err := e.wait(ctx, other)
			if errors.Is(err, errAborted) {
				continue // the leader never finished; elect a new leader
			}
			return res, err
		}
		fl := &flight{done: make(chan struct{})}
		e.inflight[flKey] = fl
		if err := e.acquire(ctx); err != nil {
			delete(e.inflight, flKey)
			e.mu.Unlock()
			fl.err = errAborted
			close(fl.done)
			return nil, err
		}
		e.mu.Unlock()

		// A computation that panics finishes its flight as aborted on the way
		// out: the slot is released, waiters re-elect, the query counts as
		// Rejected, and the panic goes on up to the caller (net/http logs it).
		computed := false
		defer func() {
			if !computed {
				e.finish(flKey, key, fl, nil, errAborted, req)
			}
		}()
		// A leader whose snapshot is superseded mid-refinement still finishes:
		// its answer is exact for the epoch it loaded, and finish keeps it out
		// of the cache. Only the caller's context cuts the computation short.
		res, err := e.compute(ctx, req, ix)
		computed = true
		if errors.Is(err, core.ErrCanceled) {
			// The waiters re-elect rather than inheriting this leader's fate.
			e.finish(flKey, key, fl, nil, errAborted, req)
			return nil, ctx.Err()
		}
		e.finish(flKey, key, fl, res, err, req)
		return res, err
	}
}

// acquire takes one of the Config.Workers slots for a flight's leader. The
// caller holds e.mu, and holds it again when acquire returns; a queued
// leader drops it while it waits. Slots pass in FIFO order: release hands a
// freed slot straight to the oldest waiter. A leader is refused with
// ErrSaturated at the queue bound (Config.MaxQueued) and gives up with
// ctx.Err() if its context ends while it is queued; both are counted. A slot
// handed over just as the context ended is kept, and compute's Cancel hook
// stops the computation at its first poll.
func (e *Engine) acquire(ctx context.Context) error {
	if e.stats.InFlight < e.cfg.Workers {
		e.stats.InFlight++
		return nil
	}
	if q := e.cfg.MaxQueued; q != 0 && len(e.waiting) >= max(q, 0) {
		e.stats.Saturated++
		return ErrSaturated
	}
	ready := make(chan struct{})
	e.waiting = append(e.waiting, ready)
	e.mu.Unlock()
	select {
	case <-ready:
	case <-ctx.Done():
	}
	e.mu.Lock()
	if i := slices.Index(e.waiting, ready); i >= 0 {
		e.waiting = slices.Delete(e.waiting, i, i+1)
		e.stats.Rejected++
		return ctx.Err()
	}
	return nil // handed over, possibly just as the context ended
}

// release frees the caller's slot, handing it to the oldest waiter if there
// is one (InFlight then stays as it is). The caller holds e.mu.
func (e *Engine) release() {
	if len(e.waiting) == 0 {
		e.stats.InFlight--
		return
	}
	close(e.waiting[0])
	e.waiting = slices.Delete(e.waiting, 0, 1)
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
	st.Queued = len(e.waiting)
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
// of the whole dataset, then refine. The refinement polls ctx and stops with
// core.ErrCanceled once it ends.
func (e *Engine) compute(ctx context.Context, req Request, ix *index) (*Result, error) {
	st := &core.Stats{}
	var opts core.Options
	if done := ctx.Done(); done != nil {
		opts.Cancel = func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
	}
	start := time.Now()
	g := ix.filter(req.Region, req.K)
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
	return res, nil
}

// finish publishes a leader's outcome, counts it, caches fresh successes,
// releases the leader's slot and wakes waiters. Results computed against a
// superseded snapshot are served to their waiters (they observed a
// consistent pre-update state) but never cached, and nothing is cached while
// an update's invalidation probes are between their cache snapshot and their
// eviction — either way the scan would not see the entry.
func (e *Engine) finish(flKey, key string, fl *flight, res *Result, err error, req Request) {
	fl.res, fl.err = res, err
	e.mu.Lock()
	delete(e.inflight, flKey)
	e.release()
	if err == errAborted {
		e.stats.Rejected++
	} else {
		e.stats.Misses++
		e.stats.Queries++
	}
	if err == nil && e.cache != nil && e.updating == 0 && res.Epoch == e.idx.Load().epoch {
		e.admit(key, req, res)
	}
	e.mu.Unlock()
	close(fl.done)
}

// admit caches res under key and counts a refused admission or a capacity
// eviction. The caller holds e.mu.
func (e *Engine) admit(key string, req Request, res *Result) {
	adm, ev := e.cache.Add(key, req.Region, req.K, uint32(req.Variant), res)
	if !adm {
		e.stats.AdmissionSkips++
	}
	if ev {
		e.stats.Evictions++
	}
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
