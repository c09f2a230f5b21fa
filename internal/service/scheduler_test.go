package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerRunsEveryAcceptedTask(t *testing.T) {
	s := NewScheduler(context.Background(), 4, 128)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if !s.TrySubmit(func(context.Context) { n.Add(1) }) {
			t.Fatalf("TrySubmit %d rejected", i)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

func TestSchedulerFIFO(t *testing.T) {
	s := NewScheduler(context.Background(), 1, 16)
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []int
	// Occupy the single worker so the remaining submissions queue up.
	s.TrySubmit(func(context.Context) { <-gate })
	for i := 0; i < 10; i++ {
		i := i
		if !s.TrySubmit(func(context.Context) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}) {
			t.Fatalf("TrySubmit %d rejected", i)
		}
	}
	close(gate)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v, want FIFO", order)
		}
	}
}

func TestTrySubmitQueueFull(t *testing.T) {
	s := NewScheduler(context.Background(), 1, 1)
	gate := make(chan struct{})
	defer close(gate)
	s.TrySubmit(func(context.Context) { <-gate })
	// Wait for the worker to take the first task off the queue.
	waitFor(t, func() bool { return s.Busy() == 1 })
	if !s.TrySubmit(func(context.Context) {}) {
		t.Fatal("queue of cap 1 rejected its first pending task")
	}
	if s.TrySubmit(func(context.Context) {}) {
		t.Fatal("TrySubmit accepted a task beyond queue capacity")
	}
	if got := s.QueueDepth(); got != 1 {
		t.Fatalf("QueueDepth = %d, want 1", got)
	}
}

func TestSubmitAfterDrain(t *testing.T) {
	s := NewScheduler(context.Background(), 2, 4)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if s.TrySubmit(func(context.Context) {}) {
		t.Fatal("TrySubmit accepted work after Drain")
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	s := NewScheduler(context.Background(), 2, 4)
	gate := make(chan struct{})
	var finished atomic.Bool
	s.TrySubmit(func(context.Context) {
		<-gate
		finished.Store(true)
	})
	waitFor(t, func() bool { return s.Busy() == 1 })
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(gate)
	}()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !finished.Load() {
		t.Fatal("Drain returned before the in-flight task finished")
	}
}

func TestDrainDeadlineCancelsTasks(t *testing.T) {
	s := NewScheduler(context.Background(), 1, 4)
	sawCancel := make(chan struct{})
	s.TrySubmit(func(ctx context.Context) {
		<-ctx.Done()
		close(sawCancel)
	})
	waitFor(t, func() bool { return s.Busy() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("forced drain did not cancel the in-flight task")
	}
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
