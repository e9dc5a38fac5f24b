package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/registry"
)

// Allocation budgets for a cache-hit query through the whole handler
// (routing, body decode, engine hit, the memo's copy), as allocs/op upper
// bounds at ~3× the measured value, the rule of the engine's
// TestAllocBudgets. The reflective codec this replaced cost many times
// more; a budget breach most likely means reflection crept back in.
const (
	allocBudgetHandlerUTK1 = 48 // measured 16 (20 while a hit built its region and encoded its answer; 23 through the root package's answer copy, 95 with encoding/json as well)
	allocBudgetHandlerUTK2 = 48 // measured 16 (20, 26, 116)
)

func TestHandlerAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	reg := registry.New()
	if _, err := reg.Create("alpha", dataset.Synthetic(dataset.IND, 2000, 4, 1), registry.Options{MaxK: 10}); err != nil {
		t.Fatal(err)
	}
	h := New(reg, Config{})
	body := []byte(`{"k":5,"region":{"lo":[0.2,0.2,0.2],"hi":[0.22,0.22,0.22]}}`)
	for _, tc := range []struct {
		path   string
		budget float64
	}{
		{"/utk1/alpha", allocBudgetHandlerUTK1},
		{"/utk2/alpha", allocBudgetHandlerUTK2},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, nil)
		var br bytes.Reader
		rc := io.NopCloser(&br)
		serve := func() *httptest.ResponseRecorder {
			br.Reset(body)
			req.Body = rc
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", tc.path, rec.Code, rec.Body)
			}
			return rec
		}
		serve() // the miss that fills the cache
		if rec := serve(); !bytes.Contains(rec.Body.Bytes(), []byte(`"cache_hit":true`)) {
			t.Fatalf("%s: repeat missed the cache: %s", tc.path, rec.Body)
		}
		got := testing.AllocsPerRun(100, func() { serve() })
		t.Logf("%-12s %6.1f allocs/op (budget %v)", tc.path, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs/op exceeds the %v budget", tc.path, got, tc.budget)
		}
	}
}
