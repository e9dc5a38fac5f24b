package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsEndpoint covers the Prometheus text exposition: per-dataset
// labeled series for the fleet counters, reflecting served traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, srv := fixture(t, "alpha", "beta")

	// Serve some traffic on alpha: one miss, one exact hit, one derived hit
	// (UTK2 cached, then UTK1 of the same region derives by containment).
	region := map[string]any{"lo": []float64{0.2, 0.2}, "hi": []float64{0.25, 0.25}}
	post(t, srv.URL+"/utk2/alpha", map[string]any{"k": 3, "region": region})
	post(t, srv.URL+"/utk2/alpha", map[string]any{"k": 3, "region": region})
	post(t, srv.URL+"/utk1/alpha", map[string]any{"k": 3, "region": region})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		"# TYPE utk_queries_total counter",
		"utk_datasets 2",
		`utk_queries_total{dataset="alpha"} 3`,
		`utk_queries_total{dataset="beta"} 0`,
		`utk_cache_hits_total{dataset="alpha"} 1`,
		`utk_cache_derived_hits_total{dataset="alpha"} 1`,
		`utk_cache_invalidations_total{dataset="alpha"} 0`,
		`utk_epoch{dataset="alpha"} 0`,
		`utk_live_records{dataset="alpha"} 150`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// An update moves the epoch and the update counters.
	post(t, srv.URL+"/update/beta", map[string]any{"insert": [][]float64{{2, 2, 2}}})
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ = io.ReadAll(resp2.Body)
	for _, want := range []string{
		`utk_inserts_total{dataset="beta"} 1`,
		`utk_update_batches_total{dataset="beta"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics output missing %q after update", want)
		}
	}
}
