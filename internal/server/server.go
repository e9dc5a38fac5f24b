// Package server is utkserve's HTTP layer, extracted from the command so the
// routing, decoding, and error mapping are testable with httptest. It mounts
// a registry of named serving engines:
//
//	POST   /utk1/{dataset}    UTK1 query        {"k":10,"region":{"lo":[...],"hi":[...]}}
//	POST   /utk2/{dataset}    UTK2 query        same body; returns the partitioning
//	POST   /update/{dataset}  atomic batch      {"delete":[3,17],"insert":[[...],...]}
//	POST   /snapshot/{dataset}  checkpoint now (durable stores only; 409 otherwise)
//	GET    /stats             fleet aggregate + per-dataset engine counters
//	GET    /stats/{dataset}   one engine's counters
//	GET    /metrics           Prometheus text exposition of the fleet counters
//	GET    /datasets          registered names with dimensions and options
//	POST   /datasets/{name}   create: {"records":[[...]]} or {"gen":"IND","n":1000,"d":4,"seed":1},
//	                          plus {"maxk":10,"cache":256,"workers":0,"timeout_ms":5000}
//	DELETE /datasets/{name}   drop
//
// /update applies deletes before inserts as one atomic batch per dataset:
// concurrent queries observe either none or all of it. A
// general convex region may replace the box:
//
//	{"k": 5, "halfspaces": [{"coef": [1, 1], "offset": 0.3}, ...]}
//
// # Wire codec
//
// The three hot routes (/utk1, /utk2, /update) do not use encoding/json:
// reflection over the bodies and answers cost more than a cache hit in the
// engine. Their answers are appended into a pooled buffer and are
// byte-identical to what encoding/json wrote for the former payload maps
// (sorted keys, null for a nil slice, encoding/json's float format,
// HTML-escaped strings, the trailing newline); TestQueryResponseGolden and a
// writer-vs-encoding/json differential hold them there. Their bodies are read
// by one small decoder that accepts exactly what json.Decoder.Decode accepts
// into the request structs and yields the same values — case-folded and
// escaped keys, duplicate keys decoding over the earlier value, unknown
// members skipped but validated to encoding/json's nesting limit, null, the
// JSON number grammar, trailing bytes after the first value ignored — which
// FuzzRequestDecode checks on arbitrary bytes; only error texts differ (the
// status stays 400, or 413 for a body over the limit). There is no fallback
// to encoding/json: a second decoder would be a second behaviour to keep
// equal, and one that runs rarely runs cold. The cold routes (/stats,
// /datasets, /snapshot, the admin routes) keep encoding/json.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/registry"
)

// Config tunes the HTTP layer.
type Config struct {
	// MaxBodyBytes bounds request bodies; 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// AllowCreate enables POST/DELETE /datasets/{name}. Serving deployments
	// that pre-register their catalogs can keep the admin surface off.
	AllowCreate bool
	// LogRequests emits one structured log line per request (slog: method,
	// path, dataset, variant, k, status, duration, and how the answer was
	// served — hit/derived/computed) to Logger.
	LogRequests bool
	// Logger receives the request lines; nil selects slog.Default().
	Logger *slog.Logger
}

// DefaultMaxBodyBytes bounds request bodies when Config.MaxBodyBytes is 0:
// large enough for bulk creates, small enough to shed abuse.
const DefaultMaxBodyBytes = 64 << 20

// Server routes HTTP requests to registry engines.
type Server struct {
	reg *registry.Registry
	cfg Config
}

// New builds the HTTP handler over the registry.
func New(reg *registry.Registry, cfg Config) http.Handler {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{reg: reg, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /utk1/{dataset}", s.handleQuery(engine.UTK1))
	mux.HandleFunc("POST /utk2/{dataset}", s.handleQuery(engine.UTK2))
	mux.HandleFunc("POST /update/{dataset}", s.handleUpdate)
	mux.HandleFunc("POST /snapshot/{dataset}", s.handleSnapshot)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /stats", s.handleStatsAll)
	mux.HandleFunc("GET /stats/{dataset}", s.handleStats)
	mux.HandleFunc("GET /datasets", s.handleList)
	if cfg.AllowCreate {
		mux.HandleFunc("POST /datasets/{dataset}", s.handleCreate)
		mux.HandleFunc("DELETE /datasets/{dataset}", s.handleDrop)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, cfg.MaxBodyBytes)
		if !cfg.LogRequests {
			mux.ServeHTTP(w, r)
			return
		}
		logger := cfg.Logger
		if logger == nil {
			logger = slog.Default()
		}
		info := &reqInfo{}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		mux.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info)))
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", time.Since(start)),
		}
		if info.dataset != "" {
			attrs = append(attrs, slog.String("dataset", info.dataset))
		}
		if info.variant != "" {
			attrs = append(attrs, slog.String("variant", info.variant))
		}
		if info.k > 0 {
			attrs = append(attrs, slog.Int("k", info.k))
		}
		if info.served != "" {
			attrs = append(attrs, slog.String("served", info.served))
		}
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// reqInfo carries the query-shaped log fields handlers annotate for the
// request-logging middleware; reqInfoKey is its context key.
type reqInfo struct {
	dataset string
	variant string
	k       int
	served  string // hit | derived | computed
}

type reqInfoKey struct{}

// note returns the request's log annotation slot — the caller's scratch
// when logging is off, so handlers annotate unconditionally.
func note(r *http.Request, scratch *reqInfo) *reqInfo {
	if info, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		return info
	}
	return scratch
}

// servedLabel classifies how a query result was obtained.
func servedLabel(cacheHit, derived bool) string {
	switch {
	case derived:
		return "derived"
	case cacheHit:
		return "hit"
	}
	return "computed"
}

// boolMetric renders a bool as the conventional 0/1 gauge value.
func boolMetric(v bool) int {
	if v {
		return 1
	}
	return 0
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// resolve maps the request's dataset path segment to a registry entry.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*registry.Entry, bool) {
	ent, err := s.reg.Get(r.PathValue("dataset"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return nil, false
	}
	return ent, true
}

// queryRequest is the JSON body of /utk1 and /utk2 (decodeQuery reads it;
// the tags document the wire names).
type queryRequest struct {
	K          int             `json:"k"`
	Region     *regionBody     `json:"region"`
	Halfspaces []halfspaceBody `json:"halfspaces"`
}

type regionBody struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

type halfspaceBody struct {
	Coef   []float64 `json:"coef"`
	Offset float64   `json:"offset"`
}

// bodyError rejects a request whose body did not decode: 413 when it ran
// past the MaxBodyBytes limit, 400 when it is malformed.
func bodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "bad request body: "+err.Error(), status)
}

// parseQuery decodes a /utk1 or /utk2 body into an engine request.
func (s *Server) parseQuery(w http.ResponseWriter, r *http.Request, ent *registry.Entry, v engine.Variant) (engine.Request, bool) {
	var req queryRequest
	if err := readBody(r, func(b []byte) error { return decodeQuery(b, &req) }); err != nil {
		bodyError(w, err)
		return engine.Request{}, false
	}
	var region *geom.Region
	var err error
	switch {
	case req.Region != nil:
		// A box has 2^width corners, so its width is checked before it is
		// built: a wide hostile body must not size that buffer.
		if want := ent.Dim() - 1; len(req.Region.Lo) != want || len(req.Region.Hi) != want {
			err = fmt.Errorf("box corners have %d and %d entries, want %d", len(req.Region.Lo), len(req.Region.Hi), want)
			break
		}
		region, err = geom.NewBox(req.Region.Lo, req.Region.Hi)
	case len(req.Halfspaces) > 0:
		hs := make([]geom.Halfspace, len(req.Halfspaces))
		for i, h := range req.Halfspaces {
			hs[i] = geom.Halfspace{A: h.Coef, B: h.Offset}
		}
		region, err = geom.NewPolytope(ent.Dim()-1, hs)
	default:
		err = fmt.Errorf("provide region {lo, hi} or halfspaces")
	}
	if err != nil {
		http.Error(w, "bad region: "+err.Error(), http.StatusBadRequest)
		return engine.Request{}, false
	}
	return engine.Request{Variant: v, K: req.K, Region: region}, true
}

// handleQuery serves /utk1 or /utk2: one engine request, its Result encoded
// as the engine returned it.
func (s *Server) handleQuery(v engine.Variant) http.HandlerFunc {
	variant := "utk1"
	if v == engine.UTK2 {
		variant = "utk2"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ent, ok := s.resolve(w, r)
		if !ok {
			return
		}
		var scratch reqInfo
		info := note(r, &scratch)
		info.dataset, info.variant = ent.Name, variant
		req, ok := s.parseQuery(w, r, ent, v)
		if !ok {
			return
		}
		info.k = req.K
		res, err := ent.Engine.Do(r.Context(), req)
		if err != nil {
			queryError(w, err)
			return
		}
		info.served = servedLabel(res.CacheHit, res.Derived)
		respond(w, func(e *enc) { e.result(res, v, ent.Name) })
	}
}

// updateRequest is the JSON body of /update. Deletes apply before inserts.
type updateRequest struct {
	Delete []int       `json:"delete"`
	Insert [][]float64 `json:"insert"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.resolve(w, r)
	if !ok {
		return
	}
	var req updateRequest
	if err := readBody(r, func(b []byte) error { return decodeUpdate(b, &req) }); err != nil {
		bodyError(w, err)
		return
	}
	if len(req.Delete)+len(req.Insert) == 0 {
		http.Error(w, "provide delete ids and/or insert records", http.StatusBadRequest)
		return
	}
	ops := make([]engine.UpdateOp, 0, len(req.Delete)+len(req.Insert))
	for _, id := range req.Delete {
		ops = append(ops, engine.UpdateOp{Kind: engine.UpdateDelete, ID: id})
	}
	for _, rec := range req.Insert {
		ops = append(ops, engine.UpdateOp{Kind: engine.UpdateInsert, Record: rec})
	}
	// Route through the registry so the batch is durably logged before the
	// acknowledgement below: a 200 from /update survives a crash.
	res, err := s.reg.Update(ent.Name, ops)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, engine.ErrUnknownRecord):
			status = http.StatusNotFound
		case errors.Is(err, registry.ErrUnknownDataset):
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	respond(w, func(e *enc) { e.update(ent.Name, req.Delete, res) })
}

// handleSnapshot checkpoints one dataset immediately: the engine state is
// exported and written atomically, and the WAL restarts after it. 409 when the
// registry's store is in-memory (nothing to checkpoint to).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("dataset")
	st, err := s.reg.Snapshot(name)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, registry.ErrUnknownDataset):
			status = http.StatusNotFound
		case errors.Is(err, registry.ErrNotDurable):
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, map[string]any{"dataset": name, "durability": st})
}

// How a stat row shows up beyond its own dataset.
const (
	perDataset = iota // /stats/{dataset} and a labelled /metrics series only
	summed            // the fleet /stats also carries the sum across datasets
	fleetWide         // summed, and /metrics exports only that unlabelled sum
)

// stat is one serving counter as the three monitoring endpoints present it.
// engineStats is the only place a counter is named outside its declaration
// and its increment: /stats/{dataset}, the fleet /stats and /metrics are
// loops over the table, so a new counter is one row here (and a reviewed
// diff of testdata/wire_golden.txt).
type stat struct {
	key   string // JSON key in /stats/{dataset}, and in the fleet /stats when summed
	prom  string // Prometheus series name; "" keeps the counter off /metrics
	help  string // Prometheus HELP text
	kind  string // Prometheus TYPE: counter or gauge
	scope int    // perDataset, summed or fleetWide
	get   func(engine.Stats) uint64
}

// engineStats is in /metrics exposition order.
var engineStats = []stat{
	{"in_flight", "utk_in_flight", "Computations executing right now.", "gauge", fleetWide, func(st engine.Stats) uint64 { return uint64(st.InFlight) }},
	{"queued", "utk_queued", "Queries waiting for a slot right now.", "gauge", fleetWide, func(st engine.Stats) uint64 { return uint64(st.Queued) }},
	{"cache_entries", "utk_cache_entries", "Resident result-cache entries.", "gauge", fleetWide, func(st engine.Stats) uint64 { return uint64(st.CacheEntries) }},
	{"queries", "utk_queries_total", "Completed queries.", "counter", summed, func(st engine.Stats) uint64 { return st.Queries }},
	{"hits", "utk_cache_hits_total", "Exact result-cache hits.", "counter", summed, func(st engine.Stats) uint64 { return st.Hits }},
	{"derived_hits", "utk_cache_derived_hits_total", "Misses answered by containment-based cell clipping.", "counter", summed, func(st engine.Stats) uint64 { return st.DerivedHits }},
	{"misses", "utk_cache_misses_total", "Result-cache misses that computed.", "counter", summed, func(st engine.Stats) uint64 { return st.Misses }},
	{"shared", "utk_cache_shared_total", "Queries coalesced onto an identical in-flight computation.", "counter", summed, func(st engine.Stats) uint64 { return st.Shared }},
	{"evictions", "utk_cache_evictions_total", "Capacity evictions.", "counter", summed, func(st engine.Stats) uint64 { return st.Evictions }},
	{"invalidations", "utk_cache_invalidations_total", "Cache entries evicted by update invalidation.", "counter", summed, func(st engine.Stats) uint64 { return st.Invalidations }},
	{"rejected", "utk_rejected_total", "Queries that gave up before obtaining a result.", "counter", summed, func(st engine.Stats) uint64 { return st.Rejected }},
	{"saturated", "utk_saturated_total", "Queries refused at the slot queue bound (429 backpressure).", "counter", summed, func(st engine.Stats) uint64 { return st.Saturated }},
	{"epoch", "utk_epoch", "Current index version.", "gauge", perDataset, func(st engine.Stats) uint64 { return st.Epoch }},
	{"live", "utk_live_records", "Live record population.", "gauge", summed, func(st engine.Stats) uint64 { return uint64(st.Live) }},
	{"inserts", "utk_inserts_total", "Applied record inserts.", "counter", summed, func(st engine.Stats) uint64 { return st.Inserts }},
	{"deletes", "utk_deletes_total", "Applied record deletes.", "counter", summed, func(st engine.Stats) uint64 { return st.Deletes }},
	{"update_batches", "utk_update_batches_total", "Applied update batches.", "counter", summed, func(st engine.Stats) uint64 { return st.UpdateBatches }},
	{"coalesced_ops", "utk_coalesced_ops_total", "Batch ops elided by same-record insert/delete coalescing.", "counter", perDataset, func(st engine.Stats) uint64 { return st.CoalescedOps }},
	{"admission_skips", "utk_admission_skips_total", "Result-cache admissions refused for churning query classes.", "counter", perDataset, func(st engine.Stats) uint64 { return st.AdmissionSkips }},
	{"probe_batches", "utk_probe_batches_total", "Update batches that ran a batched cache-invalidation probe pass.", "counter", perDataset, func(st engine.Stats) uint64 { return st.ProbeBatches }},
	{"repair_steps", "utk_repair_steps_total", "Covered records re-examined by re-cover passes after their fence entry left.", "counter", perDataset, func(st engine.Stats) uint64 { return st.RepairSteps }},
	{"band_maintenance_ns", "utk_band_maintenance_ns_total", "Wall time spent in band maintenance (held under the update mutex).", "counter", perDataset, func(st engine.Stats) uint64 { return st.BandMaintenanceNS }},
	{"batch_apply_ops", "utk_batch_apply_ops_total", "Update ops applied by band maintenance.", "counter", perDataset, func(st engine.Stats) uint64 { return st.BatchApplyOps }},
	{key: "superset_size", get: func(st engine.Stats) uint64 { return uint64(st.SupersetSize) }},
	{key: "shadow_size", get: func(st engine.Stats) uint64 { return uint64(st.ShadowSize) }},
	{key: "promotions", get: func(st engine.Stats) uint64 { return st.Promotions }},
	{key: "demotions", get: func(st engine.Stats) uint64 { return st.Demotions }},
	{key: "shadow_evictions", get: func(st engine.Stats) uint64 { return st.ShadowEvictions }},
	{key: "repairs", get: func(st engine.Stats) uint64 { return st.Repairs }},
	{key: "max_k", get: func(st engine.Stats) uint64 { return uint64(st.MaxK) }},
	{key: "workers", get: func(st engine.Stats) uint64 { return uint64(st.Workers) }},
}

// datasetStatsPayload is the /stats/{dataset} body: every table row under its
// key, plus the durability block.
func datasetStatsPayload(st engine.Stats, d registry.DurabilityStats) map[string]any {
	p := make(map[string]any, len(engineStats)+1)
	for _, row := range engineStats {
		p[row.key] = row.get(st)
	}
	p["durability"] = d
	return p
}

// fleetSum adds one row across every dataset.
func fleetSum(row stat, per map[string]engine.Stats) uint64 {
	var total uint64
	for _, st := range per {
		total += row.get(st)
	}
	return total
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.resolve(w, r)
	if !ok {
		return
	}
	writeJSON(w, datasetStatsPayload(ent.Engine.Stats(), ent.Durability(s.reg.Durable())))
}

func (s *Server) handleStatsAll(w http.ResponseWriter, r *http.Request) {
	agg := s.reg.Stats()
	per := make(map[string]any, len(agg.PerDataset))
	for name, st := range agg.PerDataset {
		per[name] = datasetStatsPayload(st, agg.PerDatasetDurability[name])
	}
	out := map[string]any{
		"durable":           agg.Durable,
		"wal_appends":       agg.WALAppends,
		"wal_bytes":         agg.WALBytes,
		"snapshots_written": agg.SnapshotsWritten,
		"replayed_ops":      agg.ReplayedOps,
		"datasets":          len(agg.PerDataset),
		"per_dataset":       per,
	}
	for _, row := range engineStats {
		if row.scope != perDataset {
			out[row.key] = fleetSum(row, agg.PerDataset)
		}
	}
	writeJSON(w, out)
}

// handleMetrics renders the fleet counters in the Prometheus text
// exposition format: one labeled series per dataset for each counter, plus
// fleet-level gauges. Dataset names are restricted by registry.ValidateName
// to label-safe characters, so no escaping is needed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	agg := s.reg.Stats()
	names := make([]string, 0, len(agg.PerDataset))
	for name := range agg.PerDataset {
		names = append(names, name)
	}
	sort.Strings(names)

	var b bytes.Buffer
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	labelled := func(name, help, kind string, get func(dataset string) any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, ds := range names {
			fmt.Fprintf(&b, "%s{dataset=%q} %v\n", name, ds, get(ds))
		}
	}
	gauge("utk_datasets", "Registered serving engines.", len(names))
	for _, row := range engineStats {
		switch {
		case row.prom == "":
		case row.scope == fleetWide:
			gauge(row.prom, row.help, fleetSum(row, agg.PerDataset))
		default:
			labelled(row.prom, row.help, row.kind, func(ds string) any { return row.get(agg.PerDataset[ds]) })
		}
	}

	gauge("utk_durable", "Whether dataset state persists across restarts (1) or is process-local (0).", boolMetric(agg.Durable))
	durability := []struct {
		name, help, kind string
		get              func(registry.DurabilityStats) any
	}{
		{"utk_wal_appends_total", "Update batches durably appended to the WAL.", "counter", func(d registry.DurabilityStats) any { return d.WALAppends }},
		{"utk_wal_bytes_total", "Bytes durably appended to the WAL.", "counter", func(d registry.DurabilityStats) any { return d.WALBytes }},
		{"utk_snapshots_written_total", "Snapshots written (creation's initial snapshot counts).", "counter", func(d registry.DurabilityStats) any { return d.SnapshotsWritten }},
		{"utk_snapshot_errors_total", "Snapshot attempts that failed.", "counter", func(d registry.DurabilityStats) any { return d.SnapshotErrors }},
		{"utk_replayed_ops", "WAL ops replayed by the recovery that produced this engine.", "gauge", func(d registry.DurabilityStats) any { return d.ReplayedOps }},
		{"utk_recovery_ms", "Wall time of the recovery that produced this engine.", "gauge", func(d registry.DurabilityStats) any { return d.RecoveryMillis }},
		{"utk_wedged", "Whether updates are rejected pending a snapshot (1) after an append failure.", "gauge", func(d registry.DurabilityStats) any { return boolMetric(d.Wedged) }},
		{"utk_last_snapshot_seq", "Batch sequence the last snapshot covers.", "gauge", func(d registry.DurabilityStats) any { return d.LastSnapshotSeq }},
		{"utk_last_snapshot_epoch", "Index epoch captured by the last snapshot.", "gauge", func(d registry.DurabilityStats) any { return d.LastSnapshotEpoch }},
		{"utk_ops_since_snapshot", "Logged ops a crash right now would replay.", "gauge", func(d registry.DurabilityStats) any { return d.OpsSinceSnapshot }},
		{"utk_wedge_retries_total", "Auto-heal snapshot attempts made while wedged.", "counter", func(d registry.DurabilityStats) any { return d.WedgeRetries }},
		{"utk_wedge_auto_healed_total", "Wedges cleared by a successful auto-heal snapshot.", "counter", func(d registry.DurabilityStats) any { return d.WedgeAutoHealed }},
	}
	for _, sr := range durability {
		labelled(sr.name, sr.help, sr.kind, func(ds string) any { return sr.get(agg.PerDatasetDurability[ds]) })
	}
	// Age is derived at scrape time; datasets that never snapshotted (an
	// in-memory registry's) are omitted rather than reported as absurdly old.
	fmt.Fprintf(&b, "# HELP utk_last_snapshot_age_seconds Seconds since the last snapshot was written.\n# TYPE utk_last_snapshot_age_seconds gauge\n")
	nowMilli := time.Now().UnixMilli()
	for _, name := range names {
		d := agg.PerDatasetDurability[name]
		if d.LastSnapshotUnixMilli == 0 {
			continue
		}
		fmt.Fprintf(&b, "utk_last_snapshot_age_seconds{dataset=%q} %.3f\n", name, float64(nowMilli-d.LastSnapshotUnixMilli)/1000)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		ent, err := s.reg.Get(name)
		if err != nil {
			continue // dropped between Names and Get
		}
		out = append(out, map[string]any{
			"name":  ent.Name,
			"len":   ent.Len(),
			"dim":   ent.Dim(),
			"max_k": ent.Opts.MaxK,
		})
	}
	writeJSON(w, map[string]any{"datasets": out})
}

// createRequest is the JSON body of POST /datasets/{name}: explicit records,
// or a generator spec. The retired "shadow" and "shards" keys that older
// clients still send are ignored like any unknown field.
type createRequest struct {
	Records   [][]float64 `json:"records"`
	Gen       string      `json:"gen"`
	N         int         `json:"n"`
	D         int         `json:"d"`
	Seed      int64       `json:"seed"`
	MaxK      int         `json:"maxk"`
	Cache     int         `json:"cache"`
	Workers   int         `json:"workers"`
	MaxQueued int         `json:"max_queued"`
	TimeoutMS int         `json:"timeout_ms"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("dataset")
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		bodyError(w, err)
		return
	}
	records := req.Records
	if len(records) == 0 {
		if req.Gen == "" {
			http.Error(w, "provide records or a gen spec", http.StatusBadRequest)
			return
		}
		n, d := req.N, req.D
		if n <= 0 {
			n = 1000
		}
		if d <= 0 {
			d = 3
		}
		width, err := dataset.Width(req.Gen, d)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// A spec is a few bytes whatever it asks for, so the body limit does
		// not bound it: hold a generated dataset to the size an uploaded one
		// could have, before generating anything.
		if int64(n) > s.cfg.MaxBodyBytes/8/int64(width) {
			http.Error(w, fmt.Sprintf("gen spec asks for %d x %d attributes, more than the %d-byte request limit allows", n, width, s.cfg.MaxBodyBytes), http.StatusBadRequest)
			return
		}
		records, _ = dataset.Generate(req.Gen, n, d, req.Seed) // Width accepted the name
	}
	maxK := req.MaxK
	if maxK <= 0 {
		maxK = 10
	}
	ent, err := s.reg.Create(name, records, registry.Options{
		MaxK:         maxK,
		CacheEntries: req.Cache,
		Workers:      req.Workers,
		MaxQueued:    req.MaxQueued,
		QueryTimeout: time.Duration(req.TimeoutMS) * time.Millisecond,
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, registry.ErrExists) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{
		"name":     ent.Name,
		"len":      ent.Len(),
		"dim":      ent.Dim(),
		"max_k":    ent.Opts.MaxK,
		"superset": ent.Engine.Stats().SupersetSize,
	})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("dataset")
	if err := s.reg.Drop(name); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"dropped": name})
}

// RetryAfterSeconds is the backoff hint sent with 429 responses when the
// engine's slot queue is saturated.
const RetryAfterSeconds = 1

func queryError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, engine.ErrSaturated):
		// Slot-queue backpressure: ask the client to back off briefly rather
		// than letting the queue grow without bound.
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The client went away mid-write; nothing useful to do.
		_ = err
	}
}
