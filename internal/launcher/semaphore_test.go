package launcher

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"melissa/internal/client"
	"melissa/internal/testwait"
)

// parked waits until n Acquire calls are parked on s: the state a test
// must reach before it asserts a waiter is blocked or wakes it.
func parked(t *testing.T, s *semaphore, n int) {
	t.Helper()
	testwait.Until(t, fmt.Sprintf("%d parked Acquire", n), func() bool { return s.Waiting() == n })
}

func TestSemaphoreBasic(t *testing.T) {
	s := newSemaphore(2)
	ctx := context.Background()
	if err := s.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if s.InUse() != 2 || s.Capacity() != 2 {
		t.Fatalf("state %d/%d", s.InUse(), s.Capacity())
	}

	acquired := make(chan error, 1)
	go func() { acquired <- s.Acquire(ctx) }()
	parked(t, s, 1) // the third acquire blocks
	s.Release()
	if err := testwait.Recv(t, acquired, "release to wake the waiter"); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreResizeGrows(t *testing.T) {
	s := newSemaphore(1)
	ctx := context.Background()
	s.Acquire(ctx)
	done := make(chan error, 1)
	go func() { done <- s.Acquire(ctx) }()
	parked(t, s, 1)
	s.Resize(2) // elasticity: more resources became available
	if err := testwait.Recv(t, done, "resize to admit the waiter"); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreResizeShrinks(t *testing.T) {
	s := newSemaphore(3)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		s.Acquire(ctx)
	}
	s.Resize(1)
	// Releasing two still leaves the semaphore full at the new capacity.
	s.Release()
	s.Release()
	acquired := make(chan error, 1)
	go func() { acquired <- s.Acquire(ctx) }()
	parked(t, s, 1) // blocked at the shrunken capacity
	s.Release()
	if err := testwait.Recv(t, acquired, "the final release to admit the waiter"); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreAcquireCancellation(t *testing.T) {
	s := newSemaphore(1)
	s.Acquire(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- s.Acquire(ctx) }()
	parked(t, s, 1)
	cancel()
	if err := testwait.Recv(t, errCh, "the cancelled acquire to return"); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestSemaphoreReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSemaphore(1).Release()
}

func TestSemaphoreConcurrentStress(t *testing.T) {
	s := newSemaphore(4)
	var inUse, maxInUse atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.Acquire(context.Background()); err != nil {
					t.Error(err)
					return
				}
				cur := inUse.Add(1)
				for {
					max := maxInUse.Load()
					if cur <= max || maxInUse.CompareAndSwap(max, cur) {
						break
					}
				}
				inUse.Add(-1)
				s.Release()
			}
		}()
	}
	wg.Wait()
	if maxInUse.Load() > 4 {
		t.Fatalf("capacity violated: %d concurrent holders", maxInUse.Load())
	}
}

// TestLauncherElasticity grows the slot pool mid-run and verifies the run
// completes with all data trained (the paper's elasticity property). The
// first client is held before it starts, so the second is parked on the one
// slot when the pool grows, and the grown pool admits it while the first
// still holds its slot.
func TestLauncherElasticity(t *testing.T) {
	cfg := testConfig(8, "Reservoir")
	cfg.MaxConcurrentClients = 1
	hold := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(hold) }) })
	var others atomic.Int32 // clients started beside the held first one
	cfg.JobHook = func(simID, _ int, _ *client.Job) {
		if simID == 0 {
			<-hold
		} else {
			others.Add(1)
		}
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := l.Run(context.Background())
		done <- result{res, err}
	}()
	parked(t, l.slots, 1)
	l.Resize(4) // resources freed up on the "cluster"
	// A client admitted beside the held one counts for good: it may finish
	// before a poll of InUse would see two slots taken.
	testwait.Until(t, "the grown pool to admit a second client", func() bool { return others.Load() > 0 })
	release.Do(func() { close(hold) })
	r := testwait.Recv(t, done, "Launcher.Run to return")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := len(r.res.Metrics.Occurrences()); got != 8*steps {
		t.Fatalf("unique samples %d, want %d", got, 8*steps)
	}
}
