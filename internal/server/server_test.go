package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	utk "repro"
	"repro/internal/dataset"
	"repro/internal/registry"
)

// fixture builds a registry with one known 3-attribute dataset under the
// given name and returns it with a test server.
func fixture(t *testing.T, names ...string) (*registry.Registry, *httptest.Server) {
	t.Helper()
	reg := registry.New()
	for i, name := range names {
		recs := dataset.Synthetic(dataset.IND, 150, 3, int64(10+i))
		opts := registry.Options{MaxK: 5}
		if i%2 == 1 {
			opts.Shards = 2
		}
		if _, err := reg.Create(name, recs, opts); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(New(reg, Config{AllowCreate: true}))
	t.Cleanup(srv.Close)
	return reg, srv
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decode(t, resp)
}

func decode(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]any
	if resp.Header.Get("Content-Type") == "application/json" {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

var queryBody = map[string]any{
	"k":      3,
	"region": map[string]any{"lo": []float64{0.2, 0.2}, "hi": []float64{0.25, 0.25}},
}

// TestRouting covers the dataset path segment: named datasets resolve,
// unknown ones 404, the legacy dataset-less path works with exactly one
// dataset and 404s with two.
func TestRouting(t *testing.T) {
	_, srv := fixture(t, "alpha")

	resp, body := post(t, srv.URL+"/utk1/alpha", queryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named query: %d", resp.StatusCode)
	}
	if body["dataset"] != "alpha" {
		t.Fatalf("dataset echo = %v", body["dataset"])
	}
	if _, ok := body["records"]; !ok {
		t.Fatalf("no records in %v", body)
	}

	resp, _ = post(t, srv.URL+"/utk1/ghost", queryBody)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d, want 404", resp.StatusCode)
	}

	// Legacy path resolves the sole dataset.
	resp, body = post(t, srv.URL+"/utk1", queryBody)
	if resp.StatusCode != http.StatusOK || body["dataset"] != "alpha" {
		t.Fatalf("legacy single-dataset query: %d %v", resp.StatusCode, body["dataset"])
	}

	// With a second dataset the legacy path becomes ambiguous.
	_, srv2 := fixture(t, "a", "b")
	resp, _ = post(t, srv2.URL+"/utk1", queryBody)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ambiguous legacy query: %d, want 404", resp.StatusCode)
	}

	// Wrong method on a query path.
	getResp, err := http.Get(srv.URL + "/utk1/alpha")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /utk1/alpha: %d, want 405", getResp.StatusCode)
	}
}

// TestQueryCorrectness cross-checks the HTTP answer against a direct
// library call, for both an unsharded and a sharded dataset.
func TestQueryCorrectness(t *testing.T) {
	reg, srv := fixture(t, "plain", "parts") // parts is sharded (2)
	for _, name := range []string{"plain", "parts"} {
		ent, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		region, err := utk.NewBoxRegion([]float64{0.2, 0.2}, []float64{0.25, 0.25})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ent.Engine.UTK1(context.Background(), utk.Query{K: 3, Region: region})
		if err != nil {
			t.Fatal(err)
		}
		resp, body := post(t, srv.URL+"/utk1/"+name, queryBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", name, resp.StatusCode)
		}
		var got []int
		for _, v := range body["records"].([]any) {
			got = append(got, int(v.(float64)))
		}
		sort.Ints(got)
		if fmt.Sprint(got) != fmt.Sprint(want.Records) {
			t.Fatalf("%s: HTTP answer %v != direct %v", name, got, want.Records)
		}
	}
}

// TestBadInputs covers the 4xx mapping of malformed bodies and queries.
func TestBadInputs(t *testing.T) {
	_, srv := fixture(t, "alpha")
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no region", map[string]any{"k": 3}, http.StatusBadRequest},
		{"bad k", map[string]any{"k": 0, "region": map[string]any{"lo": []float64{0.2, 0.2}, "hi": []float64{0.25, 0.25}}}, http.StatusBadRequest},
		{"k too large", map[string]any{"k": 99, "region": map[string]any{"lo": []float64{0.2, 0.2}, "hi": []float64{0.25, 0.25}}}, http.StatusBadRequest},
		{"region dim mismatch", map[string]any{"k": 2, "region": map[string]any{"lo": []float64{0.2}, "hi": []float64{0.25}}}, http.StatusBadRequest},
		{"inverted box", map[string]any{"k": 2, "region": map[string]any{"lo": []float64{0.3, 0.3}, "hi": []float64{0.2, 0.2}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		for _, path := range []string{"/utk1/alpha", "/utk2/alpha"} {
			resp, _ := post(t, srv.URL+path, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: %d, want %d", path, tc.name, resp.StatusCode, tc.want)
			}
		}
	}

	// Unparseable JSON.
	resp, err := http.Post(srv.URL+"/utk1/alpha", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", resp.StatusCode)
	}
}

// TestUpdateBatchAtomicity checks that a mixed /update batch with an
// unknown delete id applies nothing, and that a valid batch applies fully.
func TestUpdateBatchAtomicity(t *testing.T) {
	reg, srv := fixture(t, "alpha")
	liveOf := func() int {
		ent, err := reg.Get("alpha")
		if err != nil {
			t.Fatal(err)
		}
		return ent.Engine.Stats().Live
	}
	before := liveOf()

	resp, _ := post(t, srv.URL+"/update/alpha", map[string]any{
		"delete": []int{99999},
		"insert": [][]float64{{0.5, 0.5, 0.5}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown delete id: %d, want 404", resp.StatusCode)
	}
	if got := liveOf(); got != before {
		t.Fatalf("failed batch changed live: %d → %d", before, got)
	}

	resp, _ = post(t, srv.URL+"/update/alpha", map[string]any{
		"insert": [][]float64{{0.5, 0.5}}, // wrong dimensionality
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed record: %d, want 400", resp.StatusCode)
	}

	resp, body := post(t, srv.URL+"/update/alpha", map[string]any{
		"delete": []int{3},
		"insert": [][]float64{{0.9, 0.9, 0.9}, {0.1, 0.1, 0.1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch: %d", resp.StatusCode)
	}
	if got := liveOf(); got != before+1 {
		t.Fatalf("live after -1+2 batch: %d, want %d", got, before+1)
	}
	ids := body["inserted_ids"].([]any)
	if len(ids) != 2 || int(ids[0].(float64)) != 150 || int(ids[1].(float64)) != 151 {
		t.Fatalf("inserted ids %v, want [150 151]", ids)
	}

	// Empty batch.
	resp, _ = post(t, srv.URL+"/update/alpha", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
}

// TestStatsAggregation exercises /stats and /stats/{dataset}: per-dataset
// counters and fleet sums.
func TestStatsAggregation(t *testing.T) {
	_, srv := fixture(t, "a", "b") // b is sharded (2)
	for _, path := range []string{"/utk1/a", "/utk1/a", "/utk1/b"} {
		if resp, _ := post(t, srv.URL+path, queryBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/stats/a")
	if err != nil {
		t.Fatal(err)
	}
	one := decode(t, resp)
	if one["queries"].(float64) != 2 {
		t.Fatalf("dataset a queries = %v, want 2", one["queries"])
	}
	if one["shards"].(float64) != 1 {
		t.Fatalf("dataset a shards = %v, want 1", one["shards"])
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	agg := decode(t, resp)
	if agg["datasets"].(float64) != 2 || agg["shards"].(float64) != 3 {
		t.Fatalf("aggregate datasets/shards = %v/%v, want 2/3", agg["datasets"], agg["shards"])
	}
	if agg["queries"].(float64) != 3 {
		t.Fatalf("aggregate queries = %v, want 3", agg["queries"])
	}
	if agg["live"].(float64) != 300 {
		t.Fatalf("aggregate live = %v, want 300", agg["live"])
	}
	per := agg["per_dataset"].(map[string]any)
	if per["b"].(map[string]any)["queries"].(float64) != 1 {
		t.Fatalf("per-dataset b queries = %v", per["b"])
	}

	resp, err = http.Get(srv.URL + "/stats/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats for unknown dataset: %d, want 404", resp.StatusCode)
	}
}

// TestDatasetAdmin covers create (records and generator), list, drop,
// duplicate-create conflicts, and the -no-admin gate.
func TestDatasetAdmin(t *testing.T) {
	_, srv := fixture(t, "seeded")

	resp, body := post(t, srv.URL+"/datasets/byrecords", map[string]any{
		"records": [][]float64{{1, 2}, {2, 1}, {0.5, 0.5}, {1.5, 1.5}},
		"maxk":    2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create by records: %d", resp.StatusCode)
	}
	if body["len"].(float64) != 4 || body["dim"].(float64) != 2 {
		t.Fatalf("created shape %v", body)
	}

	// "shadow" is the retired shadow-depth knob: old clients still send it,
	// and it is ignored like any unknown field.
	resp, body = post(t, srv.URL+"/datasets/gen2", map[string]any{
		"gen": "ANTI", "n": 64, "d": 3, "maxk": 4, "shards": 2, "shadow": 3,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create by gen: %d", resp.StatusCode)
	}
	if body["shards"].(float64) != 2 {
		t.Fatalf("created shards %v, want 2", body["shards"])
	}

	resp, _ = post(t, srv.URL+"/datasets/gen2", map[string]any{"gen": "IND", "maxk": 2})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	}
	resp, _ = post(t, srv.URL+"/datasets/bad name", map[string]any{"gen": "IND", "maxk": 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name: %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, srv.URL+"/datasets/empty", map[string]any{"maxk": 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no records/gen: %d, want 400", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	list := decode(t, resp)
	if got := len(list["datasets"].([]any)); got != 3 {
		t.Fatalf("%d datasets listed, want 3", got)
	}

	// The created dataset serves queries.
	resp, _ = post(t, srv.URL+"/utk1/gen2", queryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query created dataset: %d", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/datasets/gen2", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %d", dresp.StatusCode)
	}
	resp, _ = post(t, srv.URL+"/utk1/gen2", queryBody)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query dropped dataset: %d, want 404", resp.StatusCode)
	}

	// Admin disabled: create and drop vanish from the mux.
	reg2 := registry.New()
	recs := dataset.Synthetic(dataset.IND, 40, 3, 2)
	if _, err := reg2.Create("only", recs, registry.Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	locked := httptest.NewServer(New(reg2, Config{AllowCreate: false}))
	defer locked.Close()
	resp, _ = post(t, locked.URL+"/datasets/more", map[string]any{"gen": "IND", "maxk": 2})
	if resp.StatusCode == http.StatusCreated {
		t.Fatal("create succeeded with admin disabled")
	}
}

// TestUTK2Endpoint sanity-checks the partitioning payload shape.
func TestUTK2Endpoint(t *testing.T) {
	_, srv := fixture(t, "alpha")
	resp, body := post(t, srv.URL+"/utk2/alpha", queryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("utk2: %d", resp.StatusCode)
	}
	cells := body["cells"].([]any)
	if len(cells) == 0 {
		t.Fatal("utk2 returned no cells")
	}
	first := cells[0].(map[string]any)
	if len(first["top_k"].([]any)) != 3 {
		t.Fatalf("cell top_k %v, want 3 ids", first["top_k"])
	}
	if _, ok := first["interior"]; !ok {
		t.Fatal("cell has no interior point")
	}
}

// TestBodyLimit checks the request size limiter.
func TestBodyLimit(t *testing.T) {
	reg := registry.New()
	recs := dataset.Synthetic(dataset.IND, 40, 3, 2)
	if _, err := reg.Create("only", recs, registry.Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{MaxBodyBytes: 256}))
	defer srv.Close()
	big := map[string]any{"k": 2, "region": map[string]any{
		"lo": make([]float64, 200), "hi": make([]float64, 200)}}
	resp, _ := post(t, srv.URL+"/utk1/only", big)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("oversized body accepted")
	}
}

// TestCreateGenSpecLimit: a generator spec is a few bytes whatever it asks
// for, so the handler holds the dataset it describes to the body limit — a
// generated dataset may be as large as an uploaded one, no larger — and
// rejects before generating.
func TestCreateGenSpecLimit(t *testing.T) {
	cases := []struct {
		name  string
		limit int64 // 0: the default
		body  map[string]any
		want  int
		n, d  float64 // of the created dataset
	}{
		{"the 128 GB spec", 0, map[string]any{"gen": "IND", "n": 2000000000, "d": 8}, http.StatusBadRequest, 0, 0},
		{"huge d", 0, map[string]any{"gen": "IND", "n": 1, "d": 1 << 40}, http.StatusBadRequest, 0, 0},
		{"synthetic over", 4096, map[string]any{"gen": "ANTI", "n": 129, "d": 4}, http.StatusBadRequest, 0, 0},
		{"synthetic at limit", 4096, map[string]any{"gen": "ANTI", "n": 128, "d": 4}, http.StatusCreated, 128, 4},
		{"HOTEL over", 4096, map[string]any{"gen": "HOTEL", "n": 129}, http.StatusBadRequest, 0, 0},
		{"HOTEL at limit", 4096, map[string]any{"gen": "HOTEL", "n": 128}, http.StatusCreated, 128, 4},
		{"HOUSE over", 4096, map[string]any{"gen": "HOUSE", "n": 86}, http.StatusBadRequest, 0, 0},
		{"HOUSE under", 4096, map[string]any{"gen": "HOUSE", "n": 85}, http.StatusCreated, 85, 6},
		{"NBA over", 4096, map[string]any{"gen": "NBA", "n": 65}, http.StatusBadRequest, 0, 0},
		{"NBA at limit", 4096, map[string]any{"gen": "NBA", "n": 64}, http.StatusCreated, 64, 8},
		{"defaults over a small limit", 4096, map[string]any{"gen": "IND"}, http.StatusBadRequest, 0, 0},
		{"defaults", 0, map[string]any{"gen": "IND"}, http.StatusCreated, 1000, 3},
		{"non-positive n and d default", 0, map[string]any{"gen": "COR", "n": -5, "d": 0}, http.StatusCreated, 1000, 3},
	}
	for _, tc := range cases {
		reg := registry.New()
		srv := httptest.NewServer(New(reg, Config{AllowCreate: true, MaxBodyBytes: tc.limit}))
		tc.body["maxk"] = 2
		resp, body := post(t, srv.URL+"/datasets/ds", tc.body)
		srv.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
			continue
		}
		if tc.want != http.StatusCreated {
			if reg.Len() != 0 {
				t.Errorf("%s: a rejected spec registered %v", tc.name, reg.Names())
			}
		} else if body["len"] != tc.n || body["dim"] != tc.d {
			t.Errorf("%s: created %v x %v, want %v x %v", tc.name, body["len"], body["dim"], tc.n, tc.d)
		}
	}
}
