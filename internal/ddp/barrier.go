package ddp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/tensor"
)

// barrier holds the n local ranks of a Comm until all of them have arrived.
// The last to arrive runs the round's work, alone, before it releases the
// others: that is how a collective's reduction runs and how the trainer's
// step boundary runs (Comm.Meet), and a round without work is a plain
// barrier. It can be broken: after fail every waiter and every later
// arrival returns the error instead of waiting for a rank that will not
// come — but a waiter whose round's work is running
// waits for it to finish, so the work never touches a buffer whose owner
// has returned. A waiter spins, yielding, for tensor.SpinWindow before it
// parks: the ranks arrive within microseconds of each other, and a parked
// goroutine takes far longer than that to wake. With parkOnWork it parks
// as soon as the work starts: work that waits on a socket takes longer
// than the spin, and a spinning waiter holds a P that the worker's network
// wake-up needs (with every P spinning, none polls the network). It
// allocates nothing after newBarrier.
type barrier struct {
	n          int
	parkOnWork bool
	mu         sync.Mutex
	release    *sync.Cond
	arrived    int                   // this round's arrivals; guarded by mu
	busy       atomic.Bool           // the round's work is running; written under mu
	round      atomic.Uint64         // completed rounds; a waiter leaves when it moves on
	err        atomic.Pointer[error] // the first failure; written under mu
}

func newBarrier(n int, parkOnWork bool) *barrier {
	b := &barrier{n: n, parkOnWork: parkOnWork}
	b.release = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n ranks have called it this round. The last to
// arrive runs work (if non-nil) first; an error from it breaks the barrier.
// wait returns nil to all of them, or the error the barrier was broken with.
func (b *barrier) wait(work func() error) error {
	b.mu.Lock()
	if err := b.failed(); err != nil {
		b.mu.Unlock()
		return err
	}
	round := b.round.Load()
	if b.arrived++; b.arrived < b.n {
		b.mu.Unlock()
		return b.park(round)
	}
	b.busy.Store(true)
	b.mu.Unlock()
	var err error
	if work != nil {
		err = work()
	}
	b.mu.Lock()
	b.arrived = 0
	b.busy.Store(false)
	if err != nil {
		b.breakWith(err)
	}
	if err = b.failed(); err == nil {
		b.round.Add(1)
	}
	b.mu.Unlock()
	b.release.Broadcast()
	return err
}

// park waits for round to complete or for the barrier to break.
func (b *barrier) park(round uint64) error {
	for start := time.Now(); time.Since(start) < tensor.SpinWindow && b.err.Load() == nil && !(b.parkOnWork && b.busy.Load()); runtime.Gosched() {
		if b.round.Load() != round {
			return nil
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for round == b.round.Load() && (b.err.Load() == nil || b.busy.Load()) {
		b.release.Wait()
	}
	if round != b.round.Load() {
		return nil
	}
	return b.failed()
}

// fail breaks the barrier with err; the first error stays, and fail
// returns it.
func (b *barrier) fail(err error) error {
	b.mu.Lock()
	b.breakWith(err)
	err = b.failed()
	b.mu.Unlock()
	b.release.Broadcast()
	return err
}

// breakWith records err unless an error is recorded already; b.mu is held.
// Only a failure calls it, so only a failure moves an error to the heap.
func (b *barrier) breakWith(err error) { b.err.CompareAndSwap(nil, &err) }

// failed returns the error the barrier was broken with, if any.
func (b *barrier) failed() error {
	if p := b.err.Load(); p != nil {
		return *p
	}
	return nil
}
