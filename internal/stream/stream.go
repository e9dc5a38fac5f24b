// Package stream is the sustained-update benchmark harness: it drives one
// serving engine with a continuous ApplyBatch churn stream while concurrent
// queriers issue UTK1/UTK2 queries, and reports update throughput alongside
// query latency percentiles. The same harness backs the root-level
// BenchmarkStreamSustained and cmd/utkstream, so interactive runs and CI
// regression numbers measure identical workloads.
//
// The updater is a single goroutine, which makes insert-id prediction exact:
// each batch folds ChurnPairs insert→delete pairs whose deletes target the
// ids the batch's own inserts will be assigned, exercising the engine's
// same-record coalescing path deterministically. Queriers run concurrently
// with it — the contention the harness exists to measure is between updates
// and queries, not between writers.
package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	utk "repro"
	"repro/internal/dataset"
)

// Config parameterizes one harness run. Zero values select the defaults
// noted on each field.
type Config struct {
	// N, Dim, K shape the dataset and serving depth (defaults 20000, 4, 10).
	N   int
	Dim int
	K   int
	// Sigma is the query-region side length (default 0.01).
	Sigma float64
	// BatchSize is ops per ApplyBatch (default 32), including the
	// 2*ChurnPairs ops of the coalescible insert→delete pairs (default 4
	// pairs). The remainder splits evenly between plain inserts and deletes,
	// keeping the live population stable.
	BatchSize  int
	ChurnPairs int
	// Queriers is the number of concurrent query goroutines (default 4);
	// Regions the number of distinct query boxes they cycle through
	// (default 16). Every UTK2Every-th query per querier is UTK2
	// (default 4; negative disables UTK2).
	Queriers  int
	Regions   int
	UTK2Every int
	// Batches bounds the run by update-batch count; when zero, Duration
	// bounds it by wall clock (default 2s). In ReadOnly mode no updates are
	// applied and Duration always bounds the run.
	Batches  int
	Duration time.Duration
	ReadOnly bool
	// CacheEntries passes through to the engine config (0 = engine default).
	CacheEntries int
	Seed         int64
}

func (c *Config) fill() {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.Dim <= 0 {
		c.Dim = 4
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Sigma <= 0 {
		c.Sigma = 0.01
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.ChurnPairs == 0 {
		c.ChurnPairs = 4
	}
	if 2*c.ChurnPairs > c.BatchSize {
		c.ChurnPairs = c.BatchSize / 2
	}
	if c.Queriers <= 0 {
		c.Queriers = 4
	}
	if c.Regions <= 0 {
		c.Regions = 16
	}
	if c.UTK2Every == 0 {
		c.UTK2Every = 4
	}
	if c.Batches <= 0 && c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result reports one harness run. Latency percentiles are in nanoseconds in
// the JSON encoding (time.Duration's native unit) so utkstream -json output
// is unit-unambiguous.
type Result struct {
	Batches       uint64        `json:"batches"`
	Ops           uint64        `json:"ops"`
	Queries       uint64        `json:"queries"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	UpdatesPerSec float64       `json:"updates_per_sec"`
	QueriesPerSec float64       `json:"queries_per_sec"`

	UpdateP50 time.Duration `json:"update_p50_ns"`
	UpdateP99 time.Duration `json:"update_p99_ns"`
	UpdateMax time.Duration `json:"update_max_ns"`
	// Begin percentiles isolate band maintenance (validation + applying the
	// batch to the band, read off the engine's BandMaintenanceNS) within the
	// full-apply Update percentiles. The JSON keys keep the name of the
	// begin stage that once held exactly that work.
	BeginP50 time.Duration `json:"begin_p50_ns"`
	BeginP99 time.Duration `json:"begin_p99_ns"`
	BeginMax time.Duration `json:"begin_max_ns"`
	QueryP50 time.Duration `json:"query_p50_ns"`
	QueryP99 time.Duration `json:"query_p99_ns"`
	QueryMax time.Duration `json:"query_max_ns"`

	// Stats is the engine's counter snapshot at the end of the run — the
	// streaming counters (CoalescedOps, AdmissionSkips, Promotions,
	// Demotions, Repairs, RepairSteps) say which maintenance paths the run
	// actually exercised.
	Stats utk.EngineStats `json:"stats"`
}

// Run executes one harness run and returns its measurements. It fails if any
// query or update errors, or if the engine's final live count disagrees with
// the harness's own id tracking (a cheap differential on the update path).
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	data := dataset.Synthetic(dataset.IND, cfg.N, cfg.Dim, cfg.Seed)
	e, err := utk.NewEngine(data, utk.EngineConfig{MaxK: cfg.K, CacheEntries: cfg.CacheEntries})
	if err != nil {
		return nil, err
	}

	boxes := dataset.RandomBoxes(cfg.Dim-1, cfg.Sigma, cfg.Regions, cfg.Seed+1)
	regions := make([]*utk.Region, len(boxes))
	for i, b := range boxes {
		lo, hi := b.Bounds()
		if regions[i], err = utk.NewBoxRegion(lo, hi); err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		wg      sync.WaitGroup
		qmu     sync.Mutex
		qlat    []time.Duration
		qerr    error
		queries uint64
	)
	for q := 0; q < cfg.Queriers; q++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(id)))
			lat := make([]time.Duration, 0, 4096)
			for n := 0; ; n++ {
				qctx, final := ctx, false
				if ctx.Err() != nil {
					if len(lat) > 0 {
						break // run over
					}
					// A short batch-bounded run under CPU contention can end
					// before this querier completes a single query. Finish one
					// off-window so every querier contributes to Queries and
					// the percentile sample is never empty.
					qctx, final = context.Background(), true
				}
				q := utk.Query{K: 1 + rng.Intn(cfg.K), Region: regions[rng.Intn(len(regions))]}
				start := time.Now()
				var err error
				if cfg.UTK2Every > 0 && n%cfg.UTK2Every == cfg.UTK2Every-1 {
					_, err = e.UTK2(qctx, q)
				} else {
					_, err = e.UTK1(qctx, q)
				}
				if err != nil {
					if !final && ctx.Err() != nil {
						continue // canceled mid-query; the loop top decides
					}
					if errors.Is(err, utk.ErrSaturated) {
						time.Sleep(100 * time.Microsecond)
						continue
					}
					qmu.Lock()
					if qerr == nil {
						qerr = err
					}
					qmu.Unlock()
					cancel()
					break
				}
				lat = append(lat, time.Since(start))
				if final {
					break
				}
			}
			qmu.Lock()
			qlat = append(qlat, lat...)
			queries += uint64(len(lat))
			qmu.Unlock()
		}(q)
	}

	res := &Result{}
	start := time.Now()
	if cfg.ReadOnly {
		time.Sleep(cfg.Duration)
	} else if err := drive(ctx, e, cfg, res); err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	res.Elapsed = time.Since(start)
	cancel()
	wg.Wait()
	if qerr != nil {
		return nil, fmt.Errorf("stream: query failed: %w", qerr)
	}

	sort.Slice(qlat, func(i, j int) bool { return qlat[i] < qlat[j] })
	res.Queries = queries
	res.QueryP50, res.QueryP99, res.QueryMax = percentiles(qlat)
	if res.Elapsed > 0 {
		res.UpdatesPerSec = float64(res.Ops) / res.Elapsed.Seconds()
		res.QueriesPerSec = float64(res.Queries) / res.Elapsed.Seconds()
	}
	res.Stats = e.Stats()
	return res, nil
}

// drive is the single-updater loop: it composes batches (deletes of tracked
// live ids, fresh inserts, then the coalescible pairs), applies them, and
// keeps its own live-id ledger in sync from the returned ids.
func drive(ctx context.Context, e *utk.Engine, cfg Config, res *Result) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	live := make([]int, cfg.N)
	for i := range live {
		live[i] = i
	}
	nextID := cfg.N
	newRec := func() []float64 {
		rec := make([]float64, cfg.Dim)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		if rng.Intn(8) == 0 {
			// Near-top record: likely to enter the band and trigger repair.
			for j := range rec {
				rec[j] = 0.9 + 0.1*rng.Float64()
			}
		}
		return rec
	}

	ulat := make([]time.Duration, 0, 4096)
	blat := make([]time.Duration, 0, 4096)
	deadline := time.Now().Add(cfg.Duration)
	for batches := 0; ctx.Err() == nil; batches++ {
		if cfg.Batches > 0 {
			if batches >= cfg.Batches {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		plain := cfg.BatchSize - 2*cfg.ChurnPairs
		nIns := plain / 2
		nDel := plain - nIns
		ops := make([]utk.UpdateOp, 0, cfg.BatchSize)
		for i := 0; i < nDel && len(live) > 4*cfg.K; i++ {
			j := rng.Intn(len(live))
			ops = append(ops, utk.UpdateOp{Kind: utk.UpdateDelete, ID: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		insStart := len(ops)
		for i := 0; i < nIns; i++ {
			ops = append(ops, utk.UpdateOp{Kind: utk.UpdateInsert, Record: newRec()})
		}
		// The engine assigns insert ids in op order starting at its next id,
		// which a single updater knows exactly: the pairs' deletes target the
		// ids the preceding plain inserts leave off at.
		predicted := nextID + nIns
		for p := 0; p < cfg.ChurnPairs; p++ {
			ops = append(ops,
				utk.UpdateOp{Kind: utk.UpdateInsert, Record: newRec()},
				utk.UpdateOp{Kind: utk.UpdateDelete, ID: predicted})
			predicted++
		}

		// Band maintenance is timed by the band itself: the delta of its
		// cumulative counter across the batch (this is the only updater).
		maint := e.Stats().BandMaintenanceNS
		t0 := time.Now()
		ur, err := e.ApplyBatch(ops)
		if err != nil {
			return fmt.Errorf("stream: batch %d failed: %w", batches, err)
		}
		ulat = append(ulat, time.Since(t0))
		blat = append(blat, time.Duration(e.Stats().BandMaintenanceNS-maint))
		for i := insStart; i < insStart+nIns; i++ {
			live = append(live, ur.IDs[i])
		}
		for _, id := range ur.IDs {
			if id >= nextID {
				nextID = id + 1
			}
		}
		res.Batches++
		res.Ops += uint64(len(ops))
	}

	if got := e.Stats().Live; got != len(live) {
		return fmt.Errorf("stream: engine live count %d != tracked %d", got, len(live))
	}
	sort.Slice(ulat, func(i, j int) bool { return ulat[i] < ulat[j] })
	res.UpdateP50, res.UpdateP99, res.UpdateMax = percentiles(ulat)
	sort.Slice(blat, func(i, j int) bool { return blat[i] < blat[j] })
	res.BeginP50, res.BeginP99, res.BeginMax = percentiles(blat)
	return nil
}

// percentiles reads p50/p99/max off a sorted latency slice.
func percentiles(sorted []time.Duration) (p50, p99, max time.Duration) {
	if len(sorted) == 0 {
		return 0, 0, 0
	}
	p50 = sorted[len(sorted)/2]
	p99 = sorted[len(sorted)*99/100]
	max = sorted[len(sorted)-1]
	return p50, p99, max
}
