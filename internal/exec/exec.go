// Package exec is the refinement/serving executor: one explicit work-queue
// scheduler shared by every layer that used to roll its own goroutine
// management — the core algorithms (parallel RSA verification, parallel JAA
// over a decomposed query region), batch band maintenance, and the serving
// engine's query dispatch.
//
// The scheduler runs at most Workers tasks at a time. Work arrives on two
// paths with different admission rules:
//
//   - Run submits one detached task and blocks until it completes. Run is the
//     serving layers' admission point, so it honors the queue bound: when all
//     workers are busy and maxQueued tasks are already waiting, Run returns
//     ErrSaturated immediately instead of queueing — the signal the HTTP
//     layer turns into 429 backpressure. A task whose context expires while
//     still queued is revoked without running.
//
//   - Group fans a batch of subtasks out and waits for all of them. Group
//     tasks represent work that was already admitted (a query's refinement
//     decomposition, a merge's per-child collection), so they are never
//     rejected by the queue bound. Group.Wait is help-first: while subtasks
//     are pending, the waiter executes them inline instead of blocking, so
//     fan-out from code that is itself running on a pool worker cannot
//     deadlock — even a one-worker pool makes progress. Idle pool workers
//     steal pending tasks from any waiting group's queue, which is what makes
//     a W-way decomposition actually use W cores.
//
// Workers are not persistent goroutines: a worker is spawned when work is
// queued and capacity allows, drains until every queue is empty, and exits.
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
	// Submitted and Completed count tasks over the pool's lifetime (both Run
	// and Group tasks). Skipped counts tasks resolved without running because
	// their context was already done.
	Submitted uint64
	Completed uint64
	Skipped   uint64
	// Stolen counts group tasks executed by a pool worker rather than the
	// waiting group itself; Inline counts tasks the waiter ran help-first.
	Stolen uint64
	Inline uint64
	// Rejected counts Run submissions refused at the queue bound.
	Rejected uint64
}

// task is one unit of work. A task lives in exactly one queue until a worker
// or a helping waiter claims it by removing it from that queue.
type task struct {
	fn   func(ctx context.Context) error
	g    *group
	done chan struct{} // non-nil for Run tasks: closed when resolved
	err  error
}

// group is the shared state behind a Group: its pending queue and the count
// of unresolved tasks.
type group struct {
	ctx       context.Context
	pending   []*task
	remaining int
	err       error
}

// Pool is a bounded work-queue scheduler. It is safe for concurrent use, and
// the zero value is not usable; construct with NewPool.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on task resolution (Group.Wait blocks on it)

	workers   int
	maxQueued int

	runq   []*task  // detached Run submissions, FIFO
	groups []*group // groups with pending tasks, FIFO across groups

	alive   int // worker goroutines currently spawned
	running int // tasks executing right now (workers + inline helpers)

	submitted uint64
	completed uint64
	skipped   uint64
	stolen    uint64
	inline    uint64
	rejected  uint64
}

// NewPool builds a scheduler bounded to workers concurrent tasks (values
// below 1 are raised to 1). maxQueued bounds how many detached Run tasks may
// wait for a worker: 0 means unbounded, negative means no queue at all (Run
// is rejected whenever every worker is busy), positive is the bound itself.
// Group tasks are exempt from the bound.
func NewPool(workers, maxQueued int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, maxQueued: maxQueued}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	queued := len(p.runq)
	for _, g := range p.groups {
		queued += len(g.pending)
	}
	return Stats{
		Workers:   p.workers,
		Running:   p.running,
		Queued:    queued,
		Submitted: p.submitted,
		Completed: p.completed,
		Skipped:   p.skipped,
		Stolen:    p.stolen,
		Inline:    p.inline,
		Rejected:  p.rejected,
	}
}

// Queued returns the number of tasks waiting for a worker right now.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.runq)
	for _, g := range p.groups {
		n += len(g.pending)
	}
	return n
}

// Run submits fn as one detached task and blocks until it has run to
// completion. It returns ErrSaturated without queueing when the pool's Run
// queue is at its bound while every worker is busy, and ctx.Err() when the
// context expires before a worker picks the task up (the task is revoked and
// never runs). Once the task has started, Run waits for it to finish — fn is
// expected to observe ctx through its own cancellation hooks.
func (p *Pool) Run(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := &task{fn: func(context.Context) error { fn(); return nil }, done: make(chan struct{})}
	p.mu.Lock()
	if p.maxQueued != 0 && p.running >= p.workers {
		limit := p.maxQueued
		if limit < 0 {
			limit = 0
		}
		if len(p.runq) >= limit {
			p.rejected++
			p.mu.Unlock()
			return ErrSaturated
		}
	}
	p.submitted++
	p.runq = append(p.runq, t)
	p.spawnLocked()
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

// Group is a fan-out/join scope over the pool: Go queues subtasks, Wait
// blocks until all of them resolved, executing pending ones inline while it
// waits. Groups are safe for concurrent Go calls; Wait must be called once,
// after the last Go.
type Group struct {
	p *Pool
	g *group
}

// NewGroup opens a fan-out scope. ctx may be nil; when it is non-nil and
// expires, tasks that have not started yet are resolved with ctx.Err()
// without running (tasks already running are expected to observe the same
// context through their own hooks).
func (p *Pool) NewGroup(ctx context.Context) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Group{p: p, g: &group{ctx: ctx}}
}

// Go queues one subtask. The first non-nil error (or context expiry) is
// reported by Wait; later errors are dropped.
func (gr *Group) Go(fn func(ctx context.Context) error) {
	t := &task{fn: fn, g: gr.g}
	p := gr.p
	p.mu.Lock()
	p.submitted++
	gr.g.remaining++
	if len(gr.g.pending) == 0 {
		p.groups = append(p.groups, gr.g)
	}
	gr.g.pending = append(gr.g.pending, t)
	p.spawnLocked()
	p.mu.Unlock()
}

// Wait blocks until every task of the group has resolved, returning the
// first error. While tasks are still pending it executes them inline
// (help-first), so waiting from inside a pool worker never deadlocks the
// pool.
func (gr *Group) Wait() error {
	p := gr.p
	p.mu.Lock()
	for {
		if len(gr.g.pending) > 0 {
			t := gr.g.pending[0]
			gr.g.pending = gr.g.pending[1:]
			if len(gr.g.pending) == 0 {
				p.dropGroupLocked(gr.g)
			}
			p.inline++
			p.execLocked(t)
			continue
		}
		if gr.g.remaining == 0 {
			err := gr.g.err
			p.mu.Unlock()
			return err
		}
		p.cond.Wait()
	}
}

// spawnLocked starts a worker goroutine when there is pending work and the
// concurrency bound allows another runner.
func (p *Pool) spawnLocked() {
	if p.alive+p.running >= p.workers {
		return
	}
	if len(p.runq) == 0 && len(p.groups) == 0 {
		return
	}
	p.alive++
	go p.drain()
}

// drain is one worker: it claims and executes tasks until every queue is
// empty, then exits.
func (p *Pool) drain() {
	p.mu.Lock()
	p.alive--
	for {
		if p.running >= p.workers {
			// Inline helpers absorbed the capacity this worker was spawned
			// for; task resolution will respawn if work remains.
			break
		}
		var t *task
		if len(p.runq) > 0 {
			t = p.runq[0]
			p.runq = p.runq[1:]
		} else if len(p.groups) > 0 {
			g := p.groups[0]
			t = g.pending[0]
			g.pending = g.pending[1:]
			if len(g.pending) == 0 {
				p.dropGroupLocked(g)
			}
			p.stolen++
		} else {
			break
		}
		p.execLocked(t)
	}
	p.mu.Unlock()
}

// execLocked runs one claimed task: it releases the pool mutex around fn,
// records the outcome, and wakes waiters. Called (and returns) with p.mu
// held.
func (p *Pool) execLocked(t *task) {
	ctx := context.Background()
	if t.g != nil {
		ctx = t.g.ctx
	}
	if err := ctx.Err(); err != nil {
		p.skipped++
		p.resolveLocked(t, err)
		return
	}
	p.running++
	p.mu.Unlock()
	err := t.fn(ctx)
	p.mu.Lock()
	p.running--
	p.completed++
	p.resolveLocked(t, err)
	// Capacity freed: if work is still queued, make sure a runner exists.
	p.spawnLocked()
}

// resolveLocked publishes a task outcome to its group or Run waiter.
func (p *Pool) resolveLocked(t *task, err error) {
	if t.g != nil {
		t.g.remaining--
		if err != nil && t.g.err == nil {
			t.g.err = err
		}
		p.cond.Broadcast()
	}
	t.err = err
	if t.done != nil {
		close(t.done)
	}
}

// dropGroupLocked removes a group whose pending queue emptied from the
// steal list.
func (p *Pool) dropGroupLocked(g *group) {
	for i, cand := range p.groups {
		if cand == g {
			p.groups = append(p.groups[:i], p.groups[i+1:]...)
			return
		}
	}
}
