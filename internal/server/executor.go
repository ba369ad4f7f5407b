package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrOverloaded is returned when the admission queue is full: the
// caller should shed the request (HTTP 429) rather than let goroutines
// pile up behind a slow cube.
var ErrOverloaded = errors.New("server: overloaded, admission queue full")

// ErrShuttingDown is returned by Do after Close.
var ErrShuttingDown = errors.New("server: shutting down")

// task is one admitted query execution.
type task struct {
	ctx  context.Context
	fn   func(ctx context.Context) error
	err  error
	done chan struct{}
}

// Executor runs queries on a bounded worker pool behind a bounded
// admission queue. Both bounds are backpressure: workers cap CPU
// parallelism, the queue caps latency debt. A Submit against a full
// queue fails fast with ErrOverloaded instead of queueing unboundedly.
type Executor struct {
	tasks   chan *task
	workers int
	wg      sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool
}

// NewExecutor starts a pool of the given size with the given admission
// queue capacity.
func NewExecutor(workers, queueCap int) *Executor {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	e := &Executor{tasks: make(chan *task, queueCap), workers: workers}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.work()
	}
	return e
}

func (e *Executor) work() {
	defer e.wg.Done()
	for t := range e.tasks {
		// A task whose context died while queued is skipped: the work
		// would be thrown away anyway.
		if err := t.ctx.Err(); err != nil {
			t.err = err
		} else {
			t.err = runGuarded(t)
		}
		close(t.done)
	}
}

// errQueryPanicked wraps the error runGuarded makes of a panic.
var errQueryPanicked = errors.New("server: query panicked")

// runGuarded executes the task function, converting a panic into an
// error so one poisoned query cannot take down the daemon's worker.
func runGuarded(t *task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errQueryPanicked, r)
		}
	}()
	return t.fn(t.ctx)
}

// Do admits fn and waits for it to finish, returning fn's error.
// Admission is non-blocking: a full queue yields ErrOverloaded
// immediately. Cancellation of ctx does not abandon the wait — fn
// observes ctx itself and returns promptly, which keeps the caller's
// resources (response writer, snapshot lease) valid until the worker
// is actually done with them.
func (e *Executor) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	t := &task{ctx: ctx, fn: fn, done: make(chan struct{})}
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return ErrShuttingDown
	}
	select {
	case e.tasks <- t:
		e.closeMu.RUnlock()
	default:
		e.closeMu.RUnlock()
		return ErrOverloaded
	}
	<-t.done
	return t.err
}

// QueueDepth reports the number of admitted tasks not yet picked up by
// a worker.
func (e *Executor) QueueDepth() int { return len(e.tasks) }

// Workers reports the pool size.
func (e *Executor) Workers() int { return e.workers }

// Close drains the queue and stops the workers. Queued tasks still run
// (or are skipped if their contexts died); new Do calls fail with
// ErrShuttingDown.
func (e *Executor) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	close(e.tasks)
	e.closeMu.Unlock()
	e.wg.Wait()
}
