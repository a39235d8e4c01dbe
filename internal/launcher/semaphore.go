package launcher

import (
	"context"
	"sync"
)

// semaphore is a resizable counting semaphore. It backs the launcher's
// client slots and implements the paper's elasticity (§3.1: "The number of
// running clients can evolve with time according to the resources available
// on the supercomputer, making the application elastic"): growing the
// capacity admits more concurrent clients immediately, shrinking lets
// running clients finish and admits fewer afterwards.
type semaphore struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cap     int
	used    int
	waiting int // Acquire calls parked in cond.Wait
}

func newSemaphore(capacity int) *semaphore {
	if capacity < 1 {
		capacity = 1
	}
	s := &semaphore{cap: capacity}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Acquire blocks until a slot is free or ctx is cancelled.
func (s *semaphore) Acquire(ctx context.Context) error {
	// Wake waiters on cancellation; Broadcast is cheap relative to job
	// granularity.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for s.used >= s.cap {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s.waiting++
		s.cond.Wait()
		s.waiting--
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	s.used++
	return nil
}

// Release returns a slot.
func (s *semaphore) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used == 0 {
		panic("launcher: semaphore release without acquire")
	}
	s.used--
	s.cond.Broadcast()
}

// Resize changes the capacity. Growing wakes waiters; shrinking below the
// current usage lets running holders drain naturally.
func (s *semaphore) Resize(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cap = capacity
	s.cond.Broadcast()
}

// Capacity returns the current slot count.
func (s *semaphore) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cap
}

// InUse returns the number of held slots.
func (s *semaphore) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Waiting returns the number of Acquire calls parked for a slot: each is
// woken by the next Release, Resize or cancellation.
func (s *semaphore) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting
}
