package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
)

// TestSaturationBackpressure pins the executor queue bound: with every
// worker occupied and no queue allowed, a query is refused with ErrSaturated
// immediately (not after the deadline), the refusal is counted, and the
// engine serves normally again once the executor frees up.
func TestSaturationBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	records := make([][]float64, 200)
	for i := range records {
		rec := make([]float64, 3)
		for j := range rec {
			rec[j] = rng.Float64()
		}
		records[i] = rec
	}
	e, err := New(records, Config{MaxK: 5, Workers: 1, MaxQueued: -1})
	if err != nil {
		t.Fatal(err)
	}
	region, err := geom.NewBox([]float64{0.2, 0.2}, []float64{0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Variant: UTK1, K: 3, Region: region}

	// Occupy the engine's only executor slot with a task that blocks until
	// released — the deterministic stand-in for a long-running query.
	release := make(chan struct{})
	started := make(chan struct{})
	occupied := make(chan error, 1)
	go func() {
		occupied <- e.pool.Run(context.Background(), func() {
			close(started)
			<-release
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	begin := time.Now()
	if _, err := e.Do(ctx, req); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Do under saturation returned %v, want ErrSaturated", err)
	}
	if time.Since(begin) > time.Second {
		t.Fatal("saturation rejection waited instead of failing fast")
	}
	if st := e.Stats(); st.Saturated != 1 || st.Rejected != 0 {
		t.Fatalf("Saturated = %d, Rejected = %d; want 1, 0", st.Saturated, st.Rejected)
	}

	close(release)
	if err := <-occupied; err != nil {
		t.Fatal(err)
	}
	res, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("post-saturation query failed: %v", err)
	}
	if len(res.IDs) == 0 {
		t.Fatal("post-saturation query returned nothing")
	}
	st := e.Stats()
	if st.Saturated != 1 || st.Queries != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
}
