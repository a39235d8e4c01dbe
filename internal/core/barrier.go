package core

import "sync"

// barrier holds the n local ranks of a trainer until all of them have
// arrived, once per step, and can be broken: after fail every waiter and
// every later arrival returns the error instead of waiting for a rank that
// will not come. With n = 1 wait never blocks. It allocates nothing after
// newBarrier.
type barrier struct {
	n       int
	mu      sync.Mutex
	release *sync.Cond
	arrived int
	round   uint64 // completed rounds; a waiter leaves when it moves on
	err     error
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
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	if b.arrived++; b.arrived == b.n {
		b.arrived = 0
		b.round++
		b.release.Broadcast()
		return nil
	}
	round := b.round
	for round == b.round && b.err == nil {
		b.release.Wait()
	}
	if round != b.round {
		return nil
	}
	return b.err
}

// fail breaks the barrier with err; the first error stays.
func (b *barrier) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.release.Broadcast()
}
