// Command utkstream runs the sustained-update streaming harness: a single
// writer applies a continuous ApplyBatch churn stream (including coalescible
// insert→delete pairs) while concurrent queriers issue UTK1/UTK2 queries,
// then reports update throughput, query latency percentiles, and the
// engine's streaming counters.
//
//	utkstream                                  # 2s churn run at defaults
//	utkstream -duration 5s                     # longer run
//	utkstream -compare                         # also run a read-only baseline
//	utkstream -compare -json out.json          # machine-readable output
//	utkstream -preset 250k                     # 250k-point run
//	utkstream -preset 1m                       # million-point run
//
// With -compare, the run's query p99 is reported against the same engine
// serving the same query mix with no updates at all — the streaming design
// target is that churn keeps the ratio small.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/stream"
)

func main() {
	var (
		n        = flag.Int("n", 20000, "dataset cardinality")
		d        = flag.Int("d", 4, "data dimensionality")
		k        = flag.Int("k", 10, "serving depth (MaxK)")
		sigma    = flag.Float64("sigma", 0.01, "query region side length")
		batch    = flag.Int("batch", 32, "ops per update batch")
		pairs    = flag.Int("pairs", 4, "coalescible insert→delete pairs per batch")
		queriers = flag.Int("queriers", 4, "concurrent query goroutines")
		regions  = flag.Int("regions", 16, "distinct query boxes cycled by queriers")
		cache    = flag.Int("cache", 0, "result-cache entries (0 = engine default)")
		duration = flag.Duration("duration", 2*time.Second, "run length")
		batches  = flag.Int("batches", 0, "stop after this many batches instead of -duration")
		seed     = flag.Int64("seed", 1, "workload seed")
		compare  = flag.Bool("compare", false, "also run a read-only baseline and report the p99 ratio")
		jsonOut  = flag.String("json", "", "write results as JSON to this file")
		preset   = flag.String("preset", "", "workload preset: 250k or 1m; explicit flags still override")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "utkstream:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "utkstream:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *preset != "" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		var pn, pbatch int
		var pdur time.Duration
		switch *preset {
		case "250k":
			pn, pbatch, pdur = 250_000, 64, 5*time.Second
		case "1m":
			pn, pbatch, pdur = 1_000_000, 64, 10*time.Second
		default:
			fmt.Fprintf(os.Stderr, "utkstream: unknown preset %q (want 250k or 1m)\n", *preset)
			os.Exit(2)
		}
		if !set["n"] {
			*n = pn
		}
		if !set["batch"] {
			*batch = pbatch
		}
		if !set["duration"] {
			*duration = pdur
		}
	}

	cfg := stream.Config{
		N: *n, Dim: *d, K: *k, Sigma: *sigma,
		BatchSize: *batch, ChurnPairs: *pairs,
		Queriers: *queriers, Regions: *regions,
		Batches: *batches, Duration: *duration, Seed: *seed,
		CacheEntries: *cache,
	}
	churn, err := stream.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "utkstream:", err)
		os.Exit(1)
	}
	report("churn", churn)

	out := map[string]any{"churn": churn}
	if *compare {
		rocfg := cfg
		rocfg.ReadOnly = true
		rocfg.Batches = 0
		if rocfg.Duration <= 0 {
			rocfg.Duration = 2 * time.Second
		}
		baseline, err := stream.Run(rocfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "utkstream: baseline:", err)
			os.Exit(1)
		}
		report("read-only baseline", baseline)
		ratio := 0.0
		if baseline.QueryP99 > 0 {
			ratio = float64(churn.QueryP99) / float64(baseline.QueryP99)
		}
		fmt.Printf("query p99 under churn vs read-only: %.2fx\n", ratio)
		out["baseline"] = baseline
		out["p99_ratio"] = ratio
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "utkstream:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "utkstream:", err)
			os.Exit(1)
		}
	}
}

func report(name string, r *stream.Result) {
	fmt.Printf("%s: %s elapsed\n", name, r.Elapsed.Round(time.Millisecond))
	if r.Batches > 0 {
		fmt.Printf("  updates: %d batches, %d ops, %.0f updates/s; batch p50=%s p99=%s max=%s\n",
			r.Batches, r.Ops, r.UpdatesPerSec, r.UpdateP50, r.UpdateP99, r.UpdateMax)
		fmt.Printf("  band maintenance per batch: p50=%s p99=%s max=%s; total=%s over %d ops\n",
			r.BeginP50, r.BeginP99, r.BeginMax,
			time.Duration(r.Stats.BandMaintenanceNS), r.Stats.BatchApplyOps)
	}
	fmt.Printf("  queries: %d (%.0f/s); p50=%s p99=%s max=%s\n",
		r.Queries, r.QueriesPerSec, r.QueryP50, r.QueryP99, r.QueryMax)
	st := r.Stats
	fmt.Printf("  engine: live=%d superset=%d fence=%d coalesced=%d admission_skips=%d promotions=%d demotions=%d recover_passes=%d recovered=%d\n",
		st.Live, st.SupersetSize, st.ShadowSize, st.CoalescedOps, st.AdmissionSkips,
		st.Promotions, st.Demotions, st.Repairs, st.RepairSteps)
	fmt.Printf("  cache: hits=%d misses=%d derived=%d invalidations=%d evictions=%d\n",
		st.Hits, st.Misses, st.DerivedHits, st.Invalidations, st.Evictions)
	fmt.Printf("  probes: batches=%d\n", st.ProbeBatches)
}
