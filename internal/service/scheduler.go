// Package service turns the one-shot VirtualSync pipeline into a
// long-running optimization service: a bounded job queue drained by a
// worker pool (Scheduler), a content-hash result cache with singleflight
// deduplication (Cache), Prometheus text-format instrumentation
// (Registry), and an HTTP/JSON server with NDJSON progress streaming
// (Server). cmd/vserved is the daemon front-end; internal/expt reuses
// the Scheduler for its suite runner.
package service

import (
	"context"
	"sync"
)

// Task is one unit of queued work. The context passed in is the
// scheduler's base context; it is cancelled only when a drain deadline
// forces in-flight work to stop.
type Task func(ctx context.Context)

// Scheduler is a bounded FIFO job queue drained by a fixed pool of
// worker goroutines — the pool/ctx plumbing formerly inlined in
// expt.RunSuite, lifted out so the optimization daemon and the suite
// runner share one implementation. Accepted tasks run exactly once;
// tasks rejected at submission never run.
type Scheduler struct {
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on enqueue and close
	queue  []Task
	cap    int
	busy   int
	closed bool
	wg     sync.WaitGroup

	workers int
}

// NewScheduler starts workers goroutines draining a queue of at most
// queueCap pending tasks (minimums of 1 apply to both). Tasks receive a
// context derived from ctx; cancelling ctx cancels in-flight tasks but
// does not stop the workers — call Drain to shut down.
func NewScheduler(ctx context.Context, workers, queueCap int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	base, cancel := context.WithCancel(ctx)
	s := &Scheduler{baseCtx: base, cancel: cancel, cap: queueCap, workers: workers}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		task := s.queue[0]
		s.queue = s.queue[1:]
		s.busy++
		s.mu.Unlock()

		task(s.baseCtx)

		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}
}

// TrySubmit enqueues task without blocking. It reports false when the
// queue is full or the scheduler is closed.
func (s *Scheduler) TrySubmit(task Task) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.queue) >= s.cap {
		return false
	}
	s.queue = append(s.queue, task)
	s.cond.Broadcast()
	return true
}

// Drain closes the scheduler: no new tasks are accepted, every already
// accepted task still runs, and Drain returns when the last one
// finishes. If ctx ends first, the base context handed to tasks is
// cancelled (so cooperative tasks abort), Drain still waits for the
// workers to come home, and ctx.Err() is returned.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// QueueDepth returns the number of tasks waiting to start.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Busy returns the number of workers currently running a task.
func (s *Scheduler) Busy() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return s.workers }
