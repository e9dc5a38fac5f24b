package main

import (
	"fmt"
	"io"
	"sort"
)

// report prints the human-readable summary of a run to the log.
func report(w io.Writer, r *runResult, metrics map[string]metric) {
	fmt.Fprintf(w, "  sequence %016x: %d warm-up + %d measured ops x %d replicas; %d checks; %d failed; %d replays discarded\n",
		r.seq.hash(), r.seq.warm, len(r.lat), len(r.phases), r.checked, r.bad, r.reruns)
	lat := r.byKind(r.lat)
	for k := opKind(0); k < numKinds; k++ {
		if len(lat[k]) == 0 {
			continue
		}
		sum := int64(0)
		for _, v := range lat[k] {
			sum += v
		}
		fmt.Fprintf(w, "  %-6s n=%-6d mean %9.1f  p50 %9.1f  p90 %9.1f  p95 %9.1f  p99 %9.1f  max %9.1f us\n",
			kindNames[k], len(lat[k]), float64(sum)/float64(len(lat[k]))/1e3,
			pctUS(lat[k], 0.50), pctUS(lat[k], 0.90), pctUS(lat[k], 0.95), pctUS(lat[k], 0.99), pctUS(lat[k], 1))
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}
