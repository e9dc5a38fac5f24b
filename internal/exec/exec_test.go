package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// occupy blocks every worker of the pool on a Run task until release is
// closed, returning once all of them are running. The returned wait blocks
// until those tasks have finished.
func occupy(t *testing.T, p *Pool, release chan struct{}) (wait func()) {
	t.Helper()
	started := make(chan struct{}, p.Workers())
	var wg sync.WaitGroup
	for i := 0; i < p.Workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Run(context.Background(), func() {
				started <- struct{}{}
				<-release
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < p.Workers(); i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers did not start")
		}
	}
	return wg.Wait
}

func TestRunExecutes(t *testing.T) {
	p := NewPool(2, 0)
	var ran atomic.Bool
	if err := p.Run(context.Background(), func() { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("task did not run")
	}
	st := p.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats after one task: %+v", st)
	}
}

// TestRunSaturation pins the backpressure contract: with every worker busy,
// Run is rejected the moment the queue bound is reached — immediately with a
// negative bound, after maxQueued waiters with a positive one — and the
// rejection is counted.
func TestRunSaturation(t *testing.T) {
	p := NewPool(1, -1)
	release := make(chan struct{})
	wait := occupy(t, p, release)
	if err := p.Run(context.Background(), func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("no-queue pool accepted work while busy: %v", err)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	close(release)
	wait()
	// After the worker frees up, Run succeeds again.
	if err := p.Run(context.Background(), func() {}); err != nil {
		t.Fatal(err)
	}

	p2 := NewPool(1, 1)
	release2 := make(chan struct{})
	wait2 := occupy(t, p2, release2)
	queuedDone := make(chan error, 1)
	go func() {
		queuedDone <- p2.Run(context.Background(), func() {})
	}()
	// Wait for the first Run to be queued.
	deadline := time.Now().Add(5 * time.Second)
	for p2.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("task never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p2.Run(context.Background(), func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second waiter accepted past the bound: %v", err)
	}
	close(release2)
	wait2()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued task should have run after release: %v", err)
	}
}

// TestRunRevokedOnContextExpiry pins cancellation propagation on the
// admission path: a task whose context dies while queued never runs.
func TestRunRevokedOnContextExpiry(t *testing.T) {
	p := NewPool(1, 0)
	release := make(chan struct{})
	wait := occupy(t, p, release)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var ran atomic.Bool
	go func() {
		done <- p.Run(ctx, func() { ran.Store(true) })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("task never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	close(release)
	wait()
	if ran.Load() {
		t.Fatal("revoked task ran anyway")
	}
	if st := p.Stats(); st.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", st.Skipped)
	}
}

// TestStatsAccounting reconciles the lifetime counters: every submission is
// eventually completed, skipped, or was rejected at admission.
func TestStatsAccounting(t *testing.T) {
	p := NewPool(3, 0)
	var wg sync.WaitGroup
	for i := 0; i < 25; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Run(context.Background(), func() {}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Submitted != 25 || st.Completed+st.Skipped != 25 {
		t.Fatalf("counter reconciliation failed: %+v", st)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
}
