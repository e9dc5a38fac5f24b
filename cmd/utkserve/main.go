// Command utkserve exposes a registry of utk serving engines over HTTP JSON:
// an amortized query-serving daemon hosting one or many datasets, each
// single-partition or sharded.
//
//	utkserve -gen IND -n 100000 -d 4 -maxk 20 -addr :8080
//	utkserve -data hotels.csv -name hotels -maxk 10 -shards 4 -cache 1024 -timeout 2s
//	utkserve -gen IND -n 100000 -d 4 -data-dir /var/lib/utk -fsync always
//
// The flags register one initial dataset (default name "default"); further
// datasets can be created and dropped over HTTP unless -no-admin is set.
// Endpoints (see the server package for bodies):
//
//	POST   /utk1/{dataset}    POST /utk2/{dataset}    POST /update/{dataset}
//	GET    /stats             GET  /stats/{dataset}   GET  /datasets
//	POST   /datasets/{name}   DELETE /datasets/{name} POST /snapshot/{dataset}
//
// Dataset-less legacy paths (POST /utk1, /utk2, /update) resolve while
// exactly one dataset is registered. With -shards above 1 the initial
// dataset is horizontally partitioned; queries are answered exactly by
// merging per-shard candidate supersets into one global refinement.
//
// With -data-dir, dataset state is durable: creates persist a manifest entry
// and an initial snapshot, every acknowledged /update batch is in the WAL
// before the 200 goes out (fsync per batch under -fsync always), and a
// restart recovers every dataset from its last snapshot plus the WAL tail —
// including across kill -9. Datasets recovered from the directory win over
// the -gen/-data flags, which only seed the initial dataset the first time.
//
// CSV input is one record per line, numeric fields only; higher values are
// better in every column.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataPath = flag.String("data", "", "CSV file of numeric records (one per line)")
		gen      = flag.String("gen", "", "generate a dataset instead: IND, COR, ANTI, HOTEL, HOUSE, NBA")
		n        = flag.Int("n", 100000, "generated dataset cardinality")
		d        = flag.Int("d", 4, "generated dataset dimensionality (synthetic kinds only)")
		seed     = flag.Int64("seed", 1, "generation seed")
		name     = flag.String("name", "default", "name of the initial dataset")
		shards   = flag.Int("shards", 1, "horizontal partitions of the initial dataset (1 = unsharded)")
		maxK     = flag.Int("maxk", 20, "largest top-k depth the engine serves")
		cache    = flag.Int("cache", 0, "result-cache entries (0 = default, negative disables)")
		workers  = flag.Int("workers", 0, "executor worker limit (0 = GOMAXPROCS)")
		maxQd    = flag.Int("max-queued", 0, "queries allowed to wait for an executor slot before 429 (0 = unbounded, negative = no queue)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-query deadline (0 = none)")
		noAdmin  = flag.Bool("no-admin", false, "disable dataset create/drop over HTTP")
		maxBody  = flag.Int64("max-body", 0, "request body size limit in bytes (0 = default)")
		grace    = flag.Duration("grace", 10*time.Second, "drain period for in-flight requests on SIGINT/SIGTERM")
		logReqs  = flag.Bool("log-requests", false, "emit one structured log line per request (method, dataset, variant, k, duration, served, status)")
		dataDir  = flag.String("data-dir", "", "directory for durable dataset state (WAL + snapshots); empty = in-memory only")
		fsync    = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always (fsync per batch) or never (leave flushing to the OS)")
		snapOps  = flag.Int("snapshot-every", 0, "snapshot a dataset after this many logged update ops (0 = default 4096, negative disables)")
		pprofOn  = flag.Bool("pprof", false, "expose the net/http/pprof profiling endpoints under /debug/pprof/ (off by default; do not enable on untrusted networks)")
	)
	flag.Parse()

	reg, err := openRegistry(*dataDir, *fsync, *snapOps)
	if err != nil {
		fail(err)
	}

	// Register the initial dataset unless the durable directory already holds
	// one by that name (the recovered state wins — re-seeding would discard
	// acknowledged updates).
	ent, recovered, err := seedDataset(reg, *name, *dataPath, *gen, *n, *d, *seed, registry.Options{
		Shards:       *shards,
		MaxK:         *maxK,
		CacheEntries: *cache,
		Workers:      *workers,
		MaxQueued:    *maxQd,
		QueryTimeout: *timeout,
	})
	if err != nil {
		fail(err)
	}

	handler := server.New(reg, server.Config{
		MaxBodyBytes: *maxBody,
		AllowCreate:  !*noAdmin,
		LogRequests:  *logReqs,
	})
	st := ent.Engine.Stats()
	how := "created"
	if recovered {
		how = "recovered"
	}
	log.Printf("utkserve: dataset %q (%s): %d records, %d attributes, maxk=%d, shards=%d, superset=%d, durable=%v, listening on %s",
		ent.Name, how, ent.Len(), ent.Dim(), ent.Opts.MaxK, ent.Engine.Shards(), st.SupersetSize, reg.Durable(), *addr)

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections and
	// drains in-flight requests for up to -grace before exiting; a second
	// signal aborts the drain immediately (signal.NotifyContext unregisters
	// after the first, restoring the default handler).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: withPprof(handler, *pprofOn)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
		stop()
		log.Printf("utkserve: shutdown signal received, draining for up to %v", *grace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Printf("utkserve: drain incomplete: %v", err)
			os.Exit(1)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
		log.Printf("utkserve: drained cleanly")
	}
}

// withPprof mounts the net/http/pprof handlers under /debug/pprof/ in front
// of the API handler when enabled (the handlers are registered explicitly on
// a private mux, never on http.DefaultServeMux, so the endpoints exist only
// behind the opt-in flag). CPU/heap/alloc profiles of the live daemon are the
// intended way to verify the hot-path budgets under a real query mix.
func withPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	log.Printf("utkserve: pprof profiling endpoints enabled at /debug/pprof/")
	return mux
}

// openRegistry builds the registry over the store the flags select: a
// durable file store rooted at dataDir (recovering every dataset its
// manifest lists), or the in-memory store when dataDir is empty.
func openRegistry(dataDir, fsync string, snapOps int) (*registry.Registry, error) {
	if dataDir == "" {
		return registry.New(), nil
	}
	sync, err := store.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	st, err := store.OpenFile(dataDir, store.FileConfig{Sync: sync})
	if err != nil {
		return nil, err
	}
	reg, err := registry.Open(st, registry.SnapshotPolicy{EveryOps: snapOps})
	if err != nil {
		st.Close()
		return nil, err
	}
	for _, name := range reg.Names() {
		ent, err := reg.Get(name)
		if err != nil {
			continue
		}
		d := ent.Durability(true)
		log.Printf("utkserve: recovered dataset %q: %d records at seq %d (snapshot seq %d + %d replayed batches / %d ops in %d ms)",
			name, ent.Len(), d.LastSeq, d.LastSnapshotSeq, d.ReplayedBatches, d.ReplayedOps, d.RecoveryMillis)
	}
	return reg, nil
}

// seedDataset registers the initial dataset, unless recovery already
// produced an entry under that name.
func seedDataset(reg *registry.Registry, name, dataPath, gen string, n, d int, seed int64, opts registry.Options) (*registry.Entry, bool, error) {
	if ent, err := reg.Get(name); err == nil {
		return ent, true, nil
	}
	records, err := loadRecords(dataPath, gen, n, d, seed)
	if err != nil {
		return nil, false, err
	}
	ent, err := reg.Create(name, records, opts)
	return ent, false, err
}

func loadRecords(path, gen string, n, d int, seed int64) ([][]float64, error) {
	if path != "" {
		return readCSV(path)
	}
	switch gen {
	case "HOTEL":
		return dataset.Hotel(n, seed), nil
	case "HOUSE":
		return dataset.House(n, seed), nil
	case "NBA":
		return dataset.NBA(n, seed), nil
	case "":
		return nil, fmt.Errorf("provide -data or -gen")
	default:
		kind, err := dataset.ParseKind(gen)
		if err != nil {
			return nil, err
		}
		return dataset.Synthetic(kind, n, d, seed), nil
	}
}

func readCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]float64
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		rec := make([]float64, len(fields))
		for i, fld := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			rec[i] = v
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "utkserve:", err)
	os.Exit(1)
}
