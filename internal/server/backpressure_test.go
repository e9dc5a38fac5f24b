package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	utk "repro"
	"repro/internal/dataset"
	"repro/internal/registry"
)

// TestQueryErrorSaturationMapping pins the backpressure translation: an
// engine-level ErrSaturated becomes 429 with a Retry-After hint, distinct
// from the 503 deadline mapping and the 400 default.
func TestQueryErrorSaturationMapping(t *testing.T) {
	rec := httptest.NewRecorder()
	queryError(rec, fmt.Errorf("engine says: %w", utk.ErrSaturated))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != fmt.Sprint(RetryAfterSeconds) {
		t.Fatalf("Retry-After = %q, want %d", got, RetryAfterSeconds)
	}
	rec = httptest.NewRecorder()
	queryError(rec, context.DeadlineExceeded)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("deadline response must not carry Retry-After")
	}
}

// TestStatsExposeSaturation checks that the slot-gate counters reach both the
// JSON stats payloads and the Prometheus exposition.
func TestStatsExposeSaturation(t *testing.T) {
	reg := registry.New()
	recs := dataset.Synthetic(dataset.IND, 120, 3, 3)
	if _, err := reg.Create("ds", recs, registry.Options{MaxK: 4}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{AllowCreate: false}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stats/ds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"saturated", "queued"} {
		if _, ok := payload[field]; !ok {
			t.Fatalf("stats payload lacks %q: %v", field, payload)
		}
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `utk_saturated_total{dataset="ds"} 0`) {
		t.Fatalf("metrics lack utk_saturated_total series:\n%s", text)
	}
	if !strings.Contains(text, "utk_queued") {
		t.Fatalf("metrics lack utk_queued gauge:\n%s", text)
	}
}

// TestRequestLogging drives real queries through a handler with structured
// logging on and checks the emitted line carries the documented fields —
// including the hit/derived/computed classification.
func TestRequestLogging(t *testing.T) {
	reg := registry.New()
	recs := dataset.Synthetic(dataset.IND, 150, 3, 4)
	if _, err := reg.Create("logged", recs, registry.Options{MaxK: 5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv := httptest.NewServer(New(reg, Config{LogRequests: true, Logger: logger}))
	defer srv.Close()

	body := `{"k":3,"region":{"lo":[0.2,0.2],"hi":[0.4,0.4]}}`
	post := func() {
		resp, err := http.Post(srv.URL+"/utk1/logged", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
	}
	post()
	first := buf.String()
	for _, want := range []string{"method=POST", "path=/utk1/logged", "dataset=logged", "variant=utk1", "k=3", "status=200", "served=computed", "duration="} {
		if !strings.Contains(first, want) {
			t.Fatalf("first request line lacks %q:\n%s", want, first)
		}
	}
	buf.Reset()
	post() // identical query: an exact cache hit
	if second := buf.String(); !strings.Contains(second, "served=hit") {
		t.Fatalf("repeat request not logged as a hit:\n%s", second)
	}

	// Errors carry their status too.
	buf.Reset()
	resp, err := http.Post(srv.URL+"/utk1/logged", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := buf.String(); !strings.Contains(got, "status=400") {
		t.Fatalf("bad request line lacks status=400:\n%s", got)
	}
}

// TestLoggingOffByDefault pins the gate: without LogRequests nothing is
// written even when a Logger is supplied.
func TestLoggingOffByDefault(t *testing.T) {
	reg := registry.New()
	recs := dataset.Synthetic(dataset.IND, 100, 3, 5)
	if _, err := reg.Create("quiet", recs, registry.Options{MaxK: 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv := httptest.NewServer(New(reg, Config{Logger: logger}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/utk1/quiet", "application/json",
		strings.NewReader(`{"k":2,"region":{"lo":[0.2,0.2],"hi":[0.4,0.4]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if buf.Len() != 0 {
		t.Fatalf("logging was not gated: %s", buf.String())
	}
}
