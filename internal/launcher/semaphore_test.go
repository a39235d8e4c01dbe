package launcher

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

	acquired := make(chan struct{})
	go func() {
		s.Acquire(ctx)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("third acquire should block")
	case <-time.After(20 * time.Millisecond):
	}
	s.Release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("release did not wake waiter")
	}
}

func TestSemaphoreResizeGrows(t *testing.T) {
	s := newSemaphore(1)
	ctx := context.Background()
	s.Acquire(ctx)
	done := make(chan struct{})
	go func() {
		s.Acquire(ctx)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	s.Resize(2) // elasticity: more resources became available
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("resize did not admit the waiter")
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
	acquired := make(chan struct{})
	go func() {
		s.Acquire(ctx)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("acquire should block at shrunken capacity")
	case <-time.After(20 * time.Millisecond):
	}
	s.Release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("final release did not admit waiter")
	}
}

func TestSemaphoreAcquireCancellation(t *testing.T) {
	s := newSemaphore(1)
	s.Acquire(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- s.Acquire(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected cancellation error")
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled acquire never returned")
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
// completes with all data trained (the paper's elasticity property).
func TestLauncherElasticity(t *testing.T) {
	cfg := testConfig(8, "Reservoir")
	cfg.MaxConcurrentClients = 1
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		l.Resize(4) // resources freed up on the "cluster"
	}()
	res, err := runLauncher(t, l, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Metrics.Occurrences()); got != 8*steps {
		t.Fatalf("unique samples %d, want %d", got, 8*steps)
	}
}
