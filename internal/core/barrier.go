package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/tensor"
)

// barrier holds the n local ranks of a trainer until all of them have
// arrived, twice per step, and can be broken: after fail every waiter and
// every later arrival returns the error instead of waiting for a rank that
// will not come. A waiter spins, yielding, for tensor.SpinWindow before it
// parks: the ranks arrive within microseconds of each other, and a parked
// goroutine takes far longer than that to wake. With n = 1 wait never
// blocks. It allocates nothing after newBarrier.
type barrier struct {
	n       int
	mu      sync.Mutex
	release *sync.Cond
	arrived int           // this round's arrivals; guarded by mu
	round   atomic.Uint64 // completed rounds; a waiter leaves when it moves on
	broken  atomic.Bool   // err is set
	err     error         // guarded by mu
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.release = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n ranks have called it this round. It returns nil
// to all of them, or the error the barrier was broken with.
func (b *barrier) wait() error {
	if b.n == 1 {
		return nil
	}
	b.mu.Lock()
	if err := b.err; err != nil {
		b.mu.Unlock()
		return err
	}
	round := b.round.Load()
	if b.arrived++; b.arrived == b.n {
		b.arrived = 0
		b.round.Add(1)
		b.mu.Unlock()
		b.release.Broadcast()
		return nil
	}
	b.mu.Unlock()
	for start := time.Now(); time.Since(start) < tensor.SpinWindow && !b.broken.Load(); runtime.Gosched() {
		if b.round.Load() != round {
			return nil
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for round == b.round.Load() && b.err == nil {
		b.release.Wait()
	}
	if round != b.round.Load() {
		return nil
	}
	return b.err
}

// fail breaks the barrier with err; the first error stays.
func (b *barrier) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
		b.broken.Store(true)
	}
	b.mu.Unlock()
	b.release.Broadcast()
}
