package server

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/store"
)

// durableFixture serves one dataset backed by a file store in a temp dir.
func durableFixture(t *testing.T) (*registry.Registry, *httptest.Server) {
	t.Helper()
	st, err := store.OpenFile(t.TempDir(), store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	reg, err := registry.Open(st, registry.SnapshotPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.Synthetic(dataset.IND, 120, 3, 4)
	if _, err := reg.Create("ds", recs, registry.Options{MaxK: 5}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{AllowCreate: true}))
	t.Cleanup(srv.Close)
	return reg, srv
}

func TestSnapshotEndpoint(t *testing.T) {
	_, srv := durableFixture(t)

	resp, _ := post(t, srv.URL+"/update/ds", map[string]any{"insert": [][]float64{{0.9, 0.8, 0.7}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d", resp.StatusCode)
	}
	resp, body := post(t, srv.URL+"/snapshot/ds", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	dur, ok := body["durability"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot response missing durability: %v", body)
	}
	if dur["last_snapshot_seq"].(float64) != 1 || dur["snapshots_written"].(float64) != 2 {
		t.Fatalf("snapshot durability: %v", dur)
	}
	if resp, _ := post(t, srv.URL+"/snapshot/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot of unknown dataset: %d", resp.StatusCode)
	}
}

func TestSnapshotEndpointRequiresDurableStore(t *testing.T) {
	_, srv := fixture(t, "ds")
	resp, _ := post(t, srv.URL+"/snapshot/ds", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot over in-memory store: %d, want 409", resp.StatusCode)
	}
}

func TestStatsAndMetricsExposeDurability(t *testing.T) {
	_, srv := durableFixture(t)
	resp, _ := post(t, srv.URL+"/update/ds", map[string]any{"insert": [][]float64{{0.5, 0.5, 0.5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d", resp.StatusCode)
	}

	get, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode(t, get)
	if stats["durable"] != true {
		t.Fatalf("/stats durable = %v", stats["durable"])
	}
	if stats["wal_appends"].(float64) != 1 || stats["snapshots_written"].(float64) != 1 {
		t.Fatalf("/stats aggregates: appends=%v snapshots=%v", stats["wal_appends"], stats["snapshots_written"])
	}
	per := stats["per_dataset"].(map[string]any)["ds"].(map[string]any)
	dur, ok := per["durability"].(map[string]any)
	if !ok {
		t.Fatalf("per-dataset stats missing durability: %v", per)
	}
	if dur["last_seq"].(float64) != 1 || dur["wal_bytes"].(float64) <= 0 {
		t.Fatalf("per-dataset durability: %v", dur)
	}

	get, err = http.Get(srv.URL + "/stats/ds")
	if err != nil {
		t.Fatal(err)
	}
	one := decode(t, get)
	if _, ok := one["durability"].(map[string]any); !ok {
		t.Fatalf("/stats/ds missing durability: %v", one)
	}

	get, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(get.Body)
	get.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"utk_durable 1",
		`utk_wal_appends_total{dataset="ds"} 1`,
		`utk_wal_bytes_total{dataset="ds"}`,
		`utk_snapshots_written_total{dataset="ds"} 1`,
		`utk_replayed_ops{dataset="ds"} 0`,
		`utk_recovery_ms{dataset="ds"}`,
		`utk_last_snapshot_epoch{dataset="ds"}`,
		`utk_last_snapshot_age_seconds{dataset="ds"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestUpdateAcknowledgementIsDurable drives an update over HTTP, then
// recovers the store in a second registry and checks the batch survived —
// the contract behind a 200 from /update.
func TestUpdateAcknowledgementIsDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(st, registry.SnapshotPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.Synthetic(dataset.IND, 90, 3, 6)
	if _, err := reg.Create("ds", recs, registry.Options{MaxK: 4}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{}))
	resp, body := post(t, srv.URL+"/update/ds", map[string]any{"insert": [][]float64{{0.99, 0.99, 0.99}}, "delete": []int{7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d", resp.StatusCode)
	}
	wantLive := int(body["live"].(float64))
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	reg2, err := registry.Open(st2, registry.SnapshotPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ent, err := reg2.Get("ds")
	if err != nil {
		t.Fatal(err)
	}
	if got := ent.Engine.Stats().Live; got != wantLive {
		t.Fatalf("recovered live = %d, want %d", got, wantLive)
	}
}

// brokenStore fails every append and snapshot while broken is set, like a
// full disk.
type brokenStore struct {
	store.Store
	broken atomic.Bool
}

var errDiskFull = errors.New("disk full")

func (s *brokenStore) Append(name string, b *store.Batch) (int64, error) {
	if s.broken.Load() {
		return 0, errDiskFull
	}
	return s.Store.Append(name, b)
}

func (s *brokenStore) WriteSnapshot(name string, snap *store.Snapshot) error {
	if s.broken.Load() {
		return errDiskFull
	}
	return s.Store.WriteSnapshot(name, snap)
}

// TestUpdateStoreFailureStatus: a store failure is the server's fault, not the
// client's. The update whose append failed is live in memory, so it answers
// 500 (a blind retry would apply it twice); the wedged dataset then answers
// 503 with Retry-After, and 200 again once a snapshot has re-based the log on
// a store that works.
func TestUpdateStoreFailureStatus(t *testing.T) {
	base, err := store.OpenFile(t.TempDir(), store.FileConfig{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { base.Close() })
	st := &brokenStore{Store: base}
	reg, err := registry.Open(st, registry.SnapshotPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("ds", dataset.Synthetic(dataset.IND, 120, 3, 4), registry.Options{MaxK: 5}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{}))
	t.Cleanup(srv.Close)
	update := func() *http.Response {
		resp, _ := post(t, srv.URL+"/update/ds", map[string]any{"insert": [][]float64{{0.5, 0.5, 0.5}}})
		return resp
	}

	st.broken.Store(true)
	if resp := update(); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("update whose append failed: %d, want 500", resp.StatusCode)
	}
	resp := update()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("update on the wedged dataset: %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	st.broken.Store(false)
	if resp, _ := post(t, srv.URL+"/snapshot/ds", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healing snapshot: %d", resp.StatusCode)
	}
	if resp := update(); resp.StatusCode != http.StatusOK {
		t.Fatalf("update after the snapshot: %d, want 200", resp.StatusCode)
	}
}
