package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestEngineDeadlineBoundsRefinement verifies the ROADMAP "cancellation
// points" item end to end: a UTK2 whose deadline expires mid-refinement
// returns promptly (freeing its worker slot) instead of running the
// partitioning to completion.
func TestEngineDeadlineBoundsRefinement(t *testing.T) {
	td := buildData(t, 3000, 4, 31)
	e, err := New(td.recs, Config{MaxK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := box(t, []float64{0.1, 0.1, 0.1}, []float64{0.28, 0.28, 0.28})
	req := Request{Variant: UTK2, K: 8, Region: r}

	// Establish that the query is genuinely long-running, otherwise the
	// deadline assertion below proves nothing.
	startFull := time.Now()
	if _, err := e.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	full := time.Since(startFull)
	if full < 200*time.Millisecond {
		t.Skipf("reference UTK2 completed in %v; too fast to observe cancellation", full)
	}

	// A different k so the cache does not answer it.
	short := Request{Variant: UTK2, K: 7, Region: r}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = e.Do(ctx, short)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The bound is loose (scheduling, one arrangement step between polls)
	// but far below the full refinement time.
	if limit := full/2 + 250*time.Millisecond; elapsed > limit {
		t.Errorf("deadline-exceeded UTK2 took %v (full run %v, limit %v): cancellation not reaching the recursion", elapsed, full, limit)
	}
	if st := e.Stats(); st.Rejected == 0 {
		t.Error("expired query not counted as rejected")
	}

	// The engine still serves after a cancellation: the worker slot was
	// released and the aborted flight left no residue.
	res, err := e.Do(context.Background(), Request{Variant: UTK1, K: 3, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 {
		t.Error("post-cancellation query returned nothing")
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after drain", st.InFlight)
	}
}
