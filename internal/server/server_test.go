package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
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
		if _, err := reg.Create(name, recs, registry.Options{MaxK: 5}); err != nil {
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
// unknown ones, dataset-less paths and the retired batch routes 404.
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

	// A dataset-less path names no dataset: 404, even with one registered.
	// There are no batch routes: one query per request.
	for _, path := range []string{"/utk1", "/utk2", "/update", "/utk1batch/alpha", "/utk2batch/alpha"} {
		resp, _ = post(t, srv.URL+path, queryBody)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s: %d, want 404", path, resp.StatusCode)
		}
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

// TestQueryCorrectness cross-checks the HTTP answer against a library
// engine over the same records, on two datasets.
func TestQueryCorrectness(t *testing.T) {
	_, srv := fixture(t, "plain", "other")
	for i, name := range []string{"plain", "other"} {
		eng, err := utk.NewEngine(dataset.Synthetic(dataset.IND, 150, 3, int64(10+i)), utk.EngineConfig{MaxK: 5})
		if err != nil {
			t.Fatal(err)
		}
		region, err := utk.NewBoxRegion([]float64{0.2, 0.2}, []float64{0.25, 0.25})
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.UTK1(context.Background(), utk.Query{K: 3, Region: region})
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
		// Building a 40-wide box would size a buffer of 2⁴⁰ corners.
		{"box wider than the data", map[string]any{"k": 2, "region": map[string]any{"lo": make([]float64, 40), "hi": slices.Repeat([]float64{0.01}, 40)}}, http.StatusBadRequest},
		// Enumerating the vertices of 800 lines would solve C(803, 2) pairs.
		{"too many half-spaces", map[string]any{"k": 2, "halfspaces": tangentLines(800)}, http.StatusBadRequest},
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

// tangentLines returns m half-space bodies tangent to a small circle inside
// the 2-dimensional preference domain: together a valid region.
func tangentLines(m int) []map[string]any {
	out := make([]map[string]any, m)
	for i := range out {
		a := 2 * math.Pi * float64(i) / float64(m)
		coef := []float64{-math.Cos(a), -math.Sin(a)}
		out[i] = map[string]any{"coef": coef, "offset": 0.2*(coef[0]+coef[1]) - 0.02}
	}
	return out
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
	_, srv := fixture(t, "a", "b")
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

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	agg := decode(t, resp)
	if agg["datasets"].(float64) != 2 {
		t.Fatalf("aggregate datasets = %v, want 2", agg["datasets"])
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
		"gen": "ANTI", "n": 64, "d": 3, "maxk": 4, "shadow": 3,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create by gen: %d", resp.StatusCode)
	}
	if _, ok := body["shards"]; ok {
		t.Fatalf("create response still reports shards: %v", body)
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
	resp, _ = post(t, srv.URL+"/datasets/deep", map[string]any{"gen": "IND", "n": 50, "maxk": 1 << 24})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("maxk past the cache key's 2^24-1: %d, want 400", resp.StatusCode)
	}
	// Every box query on a 40-attribute dataset would build 2³⁹ corners.
	resp, body = post(t, srv.URL+"/datasets/wide", map[string]any{"gen": "IND", "n": 200, "d": 40})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("d = 40: %d %v, want 400", resp.StatusCode, body)
	}

	resp, err := http.Get(srv.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	list := decode(t, resp)
	if got := len(list["datasets"].([]any)); got != 3 {
		t.Fatalf("%d datasets listed, want 3", got)
	}

	// The cache size bounds evictions; it reserves nothing up front.
	resp, body = post(t, srv.URL+"/datasets/bigcache", map[string]any{"gen": "IND", "n": 10, "maxk": 2, "cache": 2000000000})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("cache = 2e9: %d %v, want 201", resp.StatusCode, body)
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

// TestCreateIgnoresShards pins the retired partition count: a create body
// with "shards" (old clients still send it) builds the one-band engine, and
// its HTTP answer equals a library engine's over the same records.
func TestCreateIgnoresShards(t *testing.T) {
	_, srv := fixture(t)
	resp, body := post(t, srv.URL+"/datasets/legacy", map[string]any{
		"gen": "IND", "n": 300, "d": 3, "seed": 5, "maxk": 5, "shards": 4,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with shards: %d %v", resp.StatusCode, body)
	}
	eng, err := utk.NewEngine(dataset.Synthetic(dataset.IND, 300, 3, 5), utk.EngineConfig{MaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	region, err := utk.NewBoxRegion([]float64{0.2, 0.2}, []float64{0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.UTK1(context.Background(), utk.Query{K: 3, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, srv.URL+"/utk1/legacy", queryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	var got []int
	for _, v := range body["records"].([]any) {
		got = append(got, int(v.(float64)))
	}
	sort.Ints(got)
	if fmt.Sprint(got) != fmt.Sprint(want.Records) {
		t.Fatalf("HTTP answer %v != library answer %v", got, want.Records)
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

// TestBodyLimit checks the request size limiter: a body over the limit is
// refused with 413 on every route that reads one, so a client can tell it
// from malformed JSON (400, TestBadInputs).
func TestBodyLimit(t *testing.T) {
	reg := registry.New()
	recs := dataset.Synthetic(dataset.IND, 40, 3, 2)
	if _, err := reg.Create("only", recs, registry.Options{MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{MaxBodyBytes: 256, AllowCreate: true}))
	defer srv.Close()
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/utk1/only", map[string]any{"k": 2, "region": map[string]any{
			"lo": make([]float64, 200), "hi": make([]float64, 200)}}},
		{"/update/only", map[string]any{"insert": make([][]float64, 100)}},
		{"/datasets/more", map[string]any{"records": make([][]float64, 100)}},
	} {
		resp, _ := post(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body on %s: %d, want 413", tc.path, resp.StatusCode)
		}
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
		{"huge d", 0, map[string]any{"gen": "IND", "n": 1, "d": int64(1) << 40}, http.StatusBadRequest, 0, 0},
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
