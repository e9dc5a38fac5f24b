package stream

import (
	"encoding/json"
	"testing"
	"time"
)

func TestPercentilesEdgeCases(t *testing.T) {
	if p50, p99, max := percentiles(nil); p50 != 0 || p99 != 0 || max != 0 {
		t.Fatalf("empty: got %v %v %v, want zeros", p50, p99, max)
	}
	if p50, p99, max := percentiles([]time.Duration{7}); p50 != 7 || p99 != 7 || max != 7 {
		t.Fatalf("single: got %v %v %v, want 7 7 7", p50, p99, max)
	}
	// With fewer than 100 samples the p99 index n*99/100 truncates below
	// n-1: it must stay in bounds and never exceed max.
	small := make([]time.Duration, 10)
	for i := range small {
		small[i] = time.Duration(i + 1)
	}
	p50, p99, max := percentiles(small)
	if p50 != 6 {
		t.Fatalf("n=10 p50: got %v, want 6", p50)
	}
	if p99 != 10 || max != 10 {
		t.Fatalf("n=10 p99/max: got %v %v, want 10 10", p99, max)
	}
	// At exactly 100 samples p99 is the 100th value (index 99 == max);
	// at 101 it steps back to index 99, one below max.
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i + 1)
	}
	if _, p99, max := percentiles(hundred); p99 != 100 || max != 100 {
		t.Fatalf("n=100: got p99=%v max=%v, want 100 100", p99, max)
	}
	hundredOne := append(hundred, 101)
	if _, p99, max := percentiles(hundredOne); p99 != 100 || max != 101 {
		t.Fatalf("n=101: got p99=%v max=%v, want 100 101", p99, max)
	}
}

// TestResultJSONFields pins the Result wire format utkstream -json writes: a
// deterministic-seed run must produce every documented key, with latencies
// in nanosecond fields.
func TestResultJSONFields(t *testing.T) {
	cfg := Config{
		N: 800, Dim: 3, K: 5, Batches: 3, BatchSize: 16,
		Queriers: 2, Regions: 4, Seed: 42,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, key := range []string{
		"batches", "ops", "queries", "elapsed_ns",
		"updates_per_sec", "queries_per_sec",
		"update_p50_ns", "update_p99_ns", "update_max_ns",
		"query_p50_ns", "query_p99_ns", "query_max_ns",
		"stats",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("Result JSON missing key %q", key)
		}
	}
	if got := m["batches"].(float64); got != 3 {
		t.Errorf("batches = %v, want 3 (Batches bound with seed 42)", got)
	}
	if got := m["ops"].(float64); got != 48 {
		t.Errorf("ops = %v, want 48 (3 batches x 16 ops)", got)
	}
	stats, ok := m["stats"].(map[string]any)
	if !ok {
		t.Fatalf("stats is %T, want object", m["stats"])
	}
	for _, key := range []string{"ProbeBatches", "CoalescedOps", "Live"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats JSON missing key %q", key)
		}
	}
}
