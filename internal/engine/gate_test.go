package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/skyband"
)

// occupy takes one slot through the gate, as a miss would, and fails the
// test if it has to wait for it.
func occupy(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stats.InFlight >= e.cfg.Workers {
		t.Fatal("no free slot to occupy")
	}
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// vacate releases one slot taken by occupy or acquire.
func vacate(e *Engine) {
	e.mu.Lock()
	e.release()
	e.mu.Unlock()
}

// queueAcquire starts a goroutine that waits for a slot under ctx and sends
// acquire's verdict on the returned channel, and returns once the engine
// reports want queued queries.
func queueAcquire(t *testing.T, e *Engine, ctx context.Context, want int) <-chan error {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		e.mu.Lock()
		err := e.acquire(ctx)
		e.mu.Unlock()
		got <- err
	}()
	waitQueued(t, e, want)
	return got
}

// waitQueued polls until want queries wait for a slot.
func waitQueued(t *testing.T, e *Engine, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); e.Stats().Queued != want; {
		if time.Now().After(deadline) {
			t.Fatalf("Queued = %d, want %d", e.Stats().Queued, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkDrained fails unless every slot is free and nobody is queued.
func checkDrained(t *testing.T, e *Engine) {
	t.Helper()
	if st := e.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("InFlight = %d, Queued = %d after drain; want 0, 0", st.InFlight, st.Queued)
	}
}

// TestGateFIFOHandoff pins the hand-off order: a freed slot goes straight to
// the oldest queued query, and the slot count stays at the bound while it
// passes from one holder to the next.
func TestGateFIFOHandoff(t *testing.T) {
	td := buildData(t, 200, 3, 5)
	e := buildEngine(t, td.recs, Config{MaxK: 5, CacheEntries: -1, Workers: 1})
	occupy(t, e)
	const waiters = 4
	granted := make([]<-chan error, waiters)
	for i := range granted {
		granted[i] = queueAcquire(t, e, context.Background(), i+1)
	}
	for i, g := range granted {
		vacate(e)
		if err := <-g; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
		for j := i + 1; j < waiters; j++ {
			select {
			case <-granted[j]:
				t.Fatalf("waiter %d got the slot before waiter %d released it", j, i)
			default:
			}
		}
		if st := e.Stats(); st.InFlight != 1 || st.Queued != waiters-1-i {
			t.Fatalf("after hand-off %d: InFlight = %d, Queued = %d", i, st.InFlight, st.Queued)
		}
	}
	vacate(e)
	checkDrained(t, e)
}

// TestGateMaxQueued pins the queue bound with every slot taken: a negative
// MaxQueued refuses at once, a positive one after that many queries wait,
// and zero never refuses. A refusal is ErrSaturated, immediate and counted,
// and the queued queries still get their slots in turn.
func TestGateMaxQueued(t *testing.T) {
	td := buildData(t, 200, 3, 5)
	req := Request{Variant: UTK1, K: 3, Region: box(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})}
	for _, tc := range []struct{ maxQueued, queued int }{{-1, 0}, {2, 2}, {0, 3}} {
		t.Run(fmt.Sprintf("MaxQueued=%d", tc.maxQueued), func(t *testing.T) {
			e := buildEngine(t, td.recs, Config{MaxK: 5, CacheEntries: -1, Workers: 1, MaxQueued: tc.maxQueued})
			occupy(t, e)
			var granted []<-chan error
			for i := 0; i < tc.queued; i++ {
				granted = append(granted, queueAcquire(t, e, context.Background(), i+1))
			}
			done := make(chan error, 1)
			if tc.maxQueued != 0 {
				begin := time.Now()
				if _, err := e.Do(context.Background(), req); !errors.Is(err, ErrSaturated) {
					t.Fatalf("Do past the bound returned %v, want ErrSaturated", err)
				}
				if time.Since(begin) > time.Second {
					t.Fatal("saturation rejection waited instead of failing fast")
				}
				done <- nil
			} else {
				go func() {
					_, err := e.Do(context.Background(), req)
					done <- err
				}()
				waitQueued(t, e, tc.queued+1)
			}
			wantSat := uint64(0)
			if tc.maxQueued != 0 {
				wantSat = 1
			}
			if st := e.Stats(); st.Saturated != wantSat || st.Rejected != 0 {
				t.Fatalf("Saturated = %d, Rejected = %d; want %d, 0", st.Saturated, st.Rejected, wantSat)
			}
			vacate(e)
			for i, g := range granted {
				if err := <-g; err != nil {
					t.Fatalf("queued query %d: %v", i, err)
				}
				vacate(e)
			}
			if err := <-done; err != nil {
				t.Fatalf("queued query: %v", err)
			}
			checkDrained(t, e)
		})
	}
}

// TestGateRevokedOnContextExpiry pins revocation: a query whose context ends
// while it is queued leaves the queue without computing and is counted as
// rejected. An identical second caller queues on its own, behind it, keeps
// its place when the first is revoked, and is served once a slot frees up.
func TestGateRevokedOnContextExpiry(t *testing.T) {
	td := buildData(t, 200, 3, 5)
	e := buildEngine(t, td.recs, Config{MaxK: 5, CacheEntries: -1, Workers: 1})
	req := Request{Variant: UTK1, K: 3, Region: box(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})}
	occupy(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, req)
		first <- err
	}()
	waitQueued(t, e, 1)
	second := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), req)
		second <- err
	}()
	waitQueued(t, e, 2)
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("revoked query returned %v, want context.Canceled", err)
	}
	waitQueued(t, e, 1) // the second caller still waits for the slot
	if st := e.Stats(); st.Rejected != 1 || st.InFlight != 1 || st.Misses != 0 {
		t.Fatalf("after revocation: Rejected = %d, InFlight = %d, Misses = %d; want 1, 1, 0", st.Rejected, st.InFlight, st.Misses)
	}
	vacate(e)
	if err := <-second; err != nil {
		t.Fatalf("second query: %v", err)
	}
	if st := e.Stats(); st.Queries != 1 || st.Misses != 1 {
		t.Fatalf("Queries = %d, Misses = %d; want 1, 1", st.Queries, st.Misses)
	}
	checkDrained(t, e)
}

// TestGateHandoffNotLeaked pins the slot count on the two paths where a slot
// changes hands: a slot handed to a queued query just as its context ends
// is kept and released by that query (it is not also revoked), and a burst
// of concurrent misses through two slots leaves both free.
func TestGateHandoffNotLeaked(t *testing.T) {
	td := buildData(t, 300, 3, 5)
	e := buildEngine(t, td.recs, Config{MaxK: 5, CacheEntries: -1, Workers: 1})
	for i := 0; i < 50; i++ {
		occupy(t, e)
		ctx, cancel := context.WithCancel(context.Background())
		got := queueAcquire(t, e, ctx, 1)
		// Cancel and hand over under one hold of the lock, so the waiter sees
		// both its context and its grant ready.
		e.mu.Lock()
		cancel()
		e.release()
		e.mu.Unlock()
		if err := <-got; err != nil {
			t.Fatalf("round %d: a handed-over slot was revoked: %v", i, err)
		}
		if st := e.Stats(); st.InFlight != 1 || st.Rejected != 0 {
			t.Fatalf("round %d: InFlight = %d, Rejected = %d; want 1, 0", i, st.InFlight, st.Rejected)
		}
		vacate(e)
		checkDrained(t, e)
	}

	e = buildEngine(t, td.recs, Config{MaxK: 5, CacheEntries: -1, Workers: 2})
	const queries = 25
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		lo := 0.01 * float64(i)
		req := Request{Variant: UTK1, K: 3, Region: box(t, []float64{lo, 0.2}, []float64{lo + 0.1, 0.3})}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Do(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.Queries != queries || st.Misses != queries {
		t.Fatalf("Queries = %d, Misses = %d; want %d, %d", st.Queries, st.Misses, queries, queries)
	}
	checkDrained(t, e)
}

// TestLeaderPanicReleasesSlot: a query whose computation panics releases its
// slot on the way out. The slot and the queue are free again, the query
// counts as Rejected, and the panic reaches the caller. An identical query
// then takes the slot and panics at once, instead of waiting until its
// deadline.
func TestLeaderPanicReleasesSlot(t *testing.T) {
	td := buildData(t, 200, 3, 1)
	e := buildEngine(t, td.recs, Config{MaxK: 5, CacheEntries: -1, Workers: 1})
	// Rows shorter than d make the filter index out of range.
	ix := &index{epoch: e.Epoch(), ids: []int{0}, recs: [][]float64{{0.5}}, counts: []int{0}}
	ix.blocks.Store(skyband.NewBlocks(ix.recs, ix.counts))
	e.idx.Store(ix)
	req := Request{Variant: UTK1, K: 1, Region: box(t, []float64{0.2, 0.2}, []float64{0.25, 0.25})}
	for i := 1; i <= 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		var err error
		p := func() (p any) {
			defer func() { p = recover() }()
			_, err = e.Do(ctx, req)
			return nil
		}()
		cancel()
		if p == nil {
			t.Fatalf("query %d: no panic after %v (err %v)", i, time.Since(start), err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("query %d panicked after %v, want at once", i, took)
		}
		t.Logf("query %d panicked: %v", i, p)
		if st := e.Stats(); st.InFlight != 0 || st.Queued != 0 || st.Rejected != uint64(i) {
			t.Fatalf("after panic %d (%v): InFlight %d, Queued %d, Rejected %d; want 0, 0, %d",
				i, p, st.InFlight, st.Queued, st.Rejected, i)
		}
	}
}
