// Package exec is the serving engine's executor: a bounded work-queue
// scheduler that dispatches queries and turns overload into backpressure.
//
// The scheduler runs at most Workers tasks at a time. Run submits one task
// and blocks until it completes. When all workers are busy and maxQueued
// tasks are already waiting, Run returns ErrSaturated immediately instead of
// queueing — the signal the HTTP layer turns into 429 backpressure. A task
// whose context expires while still queued is revoked without running.
//
// Workers are not persistent goroutines: a worker is spawned when work is
// queued and capacity allows, drains until the queue is empty, and exits.
// An idle pool therefore holds no goroutines, and pools need no Close.
package exec

import (
	"context"
	"errors"
	"sync"
)

// ErrSaturated is returned by Run when the pending-task queue has reached the
// pool's configured bound. It is the executor-level backpressure signal.
var ErrSaturated = errors.New("exec: executor queue saturated")

// Stats is a point-in-time snapshot of a pool's counters.
type Stats struct {
	// Workers is the concurrency bound; Running and Queued are the tasks
	// executing and waiting right now.
	Workers int
	Running int
	Queued  int
	// Submitted and Completed count tasks over the pool's lifetime. Skipped
	// counts tasks revoked without running because their context expired
	// while they were queued.
	Submitted uint64
	Completed uint64
	Skipped   uint64
	// Rejected counts Run submissions refused at the queue bound.
	Rejected uint64
}

// task is one unit of work. A task lives in the queue until a worker claims
// it or its submitter revokes it.
type task struct {
	fn   func()
	done chan struct{} // closed when the task has run
}

// Pool is a bounded work-queue scheduler. It is safe for concurrent use, and
// the zero value is not usable; construct with NewPool.
type Pool struct {
	mu sync.Mutex

	workers   int
	maxQueued int

	runq []*task // waiting submissions, FIFO

	alive   int // worker goroutines spawned but not yet started
	running int // tasks executing right now

	submitted uint64
	completed uint64
	skipped   uint64
	rejected  uint64
}

// NewPool builds a scheduler bounded to workers concurrent tasks (values
// below 1 are raised to 1). maxQueued bounds how many tasks may wait for a
// worker: 0 means unbounded, negative means no queue at all (Run is rejected
// whenever every worker is busy), positive is the bound itself.
func NewPool(workers, maxQueued int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers, maxQueued: maxQueued}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers:   p.workers,
		Running:   p.running,
		Queued:    len(p.runq),
		Submitted: p.submitted,
		Completed: p.completed,
		Skipped:   p.skipped,
		Rejected:  p.rejected,
	}
}

// Queued returns the number of tasks waiting for a worker right now.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.runq)
}

// Run submits fn as one task and blocks until it has run to completion. It
// returns ErrSaturated without queueing when the queue is at its bound while
// every worker is busy, and ctx.Err() when the context expires before a
// worker picks the task up (the task is revoked and never runs). Once the
// task has started, Run waits for it to finish — fn is expected to observe
// ctx through its own cancellation hooks.
func (p *Pool) Run(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := &task{fn: fn, done: make(chan struct{})}
	p.mu.Lock()
	if p.maxQueued != 0 && p.running >= p.workers {
		limit := max(p.maxQueued, 0)
		if len(p.runq) >= limit {
			p.rejected++
			p.mu.Unlock()
			return ErrSaturated
		}
	}
	p.submitted++
	p.runq = append(p.runq, t)
	if p.alive+p.running < p.workers {
		p.alive++
		go p.drain()
	}
	p.mu.Unlock()

	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
	}
	// Revoke if still queued; otherwise a worker owns it — wait it out.
	p.mu.Lock()
	for i, q := range p.runq {
		if q == t {
			p.runq = append(p.runq[:i], p.runq[i+1:]...)
			p.skipped++
			p.mu.Unlock()
			return ctx.Err()
		}
	}
	p.mu.Unlock()
	<-t.done
	return nil
}

// drain is one worker: it claims and executes tasks until the queue is
// empty, then exits.
func (p *Pool) drain() {
	p.mu.Lock()
	p.alive--
	for len(p.runq) > 0 {
		t := p.runq[0]
		p.runq = p.runq[1:]
		p.running++
		p.mu.Unlock()
		t.fn()
		p.mu.Lock()
		p.running--
		p.completed++
		close(t.done)
	}
	p.mu.Unlock()
}
