// Command bench is this repository's one benchmark: a fixed, seeded request
// sequence per workload, replayed once, in order, by a single closed-loop
// client straight into the HTTP handler (no sockets). See README.md.
//
//	go run ./bench -workload refine_miss -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload update_mix -trace 1     # per-layer metrics
//	go run ./bench -aa 5                             # A/A: two interleaved sets of 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: refine_miss, filter_anti, reuse_hot, update_mix (empty: all, one process each)")
	seed := fs.Int64("seed", 1, "seed for the request sequence (the dataset and the hot regions are fixtures)")
	seconds := fs.Int("seconds", 15, "measured seconds, split over the replays: selects the workload's fixed op count")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing bench/out/trace.json")
	aa := fs.Int("aa", 0, "run the whole suite as two interleaved sets of N runs and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and there are no positional arguments")
		return 2
	}
	// Two Ps whatever the box has: the client goroutine plus the engine's
	// commit/fsync overlap and the GC's background worker.
	runtime.GOMAXPROCS(2)

	if *aa > 0 {
		return runAA(*aa, *seconds, stdout, stderr)
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	sp := findSpec(*workload)
	if sp == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	fmt.Fprintf(stderr, "%s seed=%d seconds=%d trace=%d  (%s, GOMAXPROCS=%d, nproc=%d, commit %s)\n",
		sp.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	res, err := sp.execute(*seed, sp.scaleFor(*seconds), *trace != 0, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a repository records none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// execute runs one workload at a scale: the untraced run, which yields the
// end-to-end metrics, and with trace set the traced replay after it, which
// yields the per-layer metrics instead.
func (sp *spec) execute(seed int64, sc scale, trace bool, logw io.Writer) (*result, error) {
	r, err := sp.run(seed, sc, logw)
	if err != nil {
		return nil, err
	}
	defer r.in.close()
	res := &result{Attempted: replicas*len(r.lat) + r.checked, Failed: r.bad, Metrics: r.endToEnd()}
	if trace {
		tr, err := r.traced(logw)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.Metrics = tr.metrics
	}
	res.Correct = res.Failed == 0
	report(logw, r, res.Metrics)
	return res, nil
}
