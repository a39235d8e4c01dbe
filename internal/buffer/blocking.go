package buffer

import (
	"sync"
	"sync/atomic"
)

// Blocking wraps a Policy with the thread-safe, blocking semantics the live
// server needs: the data-aggregator goroutine calls PutCopy (blocking while
// the policy refuses, i.e. the buffer is full), and the training goroutine
// calls GetBatchEach (blocking below threshold). It mirrors the lock/wait
// structure of Algorithm 1. Every buffered sample owns one row of the
// buffer's Arena (see the package comment).
type Blocking struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	p        Policy
	arena    *Arena
	onRetire func(Sample)

	// parkedPut/parkedGet count the goroutines currently waiting for room
	// and for data (see Parked).
	parkedPut, parkedGet int
}

// evictNotifier is implemented by policies that discard samples internally
// on Put (Reservoir, UniformEvict); the wrapper registers a hook to recycle
// the discarded rows.
type evictNotifier interface {
	setOnEvict(fn func(Sample))
}

// NewBlockingArena wraps p with a sample arena for rows of the given
// widths. The wrapper owns p; callers must not touch it directly afterwards
// except through WithLock. The arena is sized to the policy capacity plus
// slack, growing in chunks if a policy (e.g. unbounded FIFO) outgrows it.
func NewBlockingArena(p Policy, inDim, outDim int) *Blocking {
	b := &Blocking{p: p}
	b.notFull = sync.NewCond(&b.mu)
	b.notEmpty = sync.NewCond(&b.mu)
	rows := p.Capacity()
	if rows <= 0 {
		rows = arenaChunkRows
	}
	// One extra chunk of slack: an incoming sample holds its row before the
	// policy evicts the one it replaces.
	b.arena = NewArena(rows+arenaChunkRows, inDim, outDim)
	if ev, ok := p.(evictNotifier); ok {
		ev.setOnEvict(b.recycle)
	}
	return b
}

// Arena exposes the backing arena; the server's ingestion gates use it to
// assert row recycling.
func (b *Blocking) Arena() *Arena { return b.arena }

// OnRetire registers a callback invoked — under the buffer lock, just
// before the arena row is recycled — for every sample that permanently
// leaves the buffer through GetBatchEach (FIFO/FIRO pop, Reservoir
// drain-mode removal). The callback must deep-copy any payload it keeps:
// the sample's Input/Output alias an arena row that is overwritten by the
// next PutCopy. The elastic server uses it to journal consumed samples
// for replay after a group rollback, since a sample consumed after the
// last group checkpoint would otherwise be lost to the restored epoch.
// Pass nil to unregister.
func (b *Blocking) OnRetire(fn func(Sample)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onRetire = fn
}

// recycle returns a sample's row to the free list. It must run under b.mu
// (policy hooks fire inside Put/TryGet, which the wrapper always calls
// locked).
func (b *Blocking) recycle(s Sample) { b.arena.freeSlot(s.slot) }

// PutCopy inserts one sample by bulk-copying its payload into an arena row
// under the lock, blocking while the policy refuses (buffer full). The
// caller keeps ownership of input/output and may recycle them immediately
// after return. It reports false, storing nothing, when the payload is not
// exactly one row, or when the sample was refused because reception has
// ended: nothing consumes any more, so the frame is a straggler and the
// caller drops it.
func (b *Blocking) PutCopy(simID, step int, input, output []float32) bool {
	return b.PutCopyThen(simID, step, input, output, nil)
}

// PutCopyThen is PutCopy that calls stored, when non-nil, under the buffer
// lock right after the sample went in, so the caller can commit its own
// record of the sample in the insertion's critical section: whoever reads
// the buffer under its lock (WithLock) sees the sample and the caller's
// record of it together or not at all. stored must not call back into the
// buffer.
func (b *Blocking) PutCopyThen(simID, step int, input, output []float32, stored func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		s, ok := b.arena.copyIn(simID, step, input, output)
		if !ok {
			return false
		}
		if b.p.Put(s) {
			if stored != nil {
				stored()
			}
			b.notEmpty.Signal()
			return true
		}
		// The row goes back before waiting: a producer may stay parked
		// across a ReplaceContents, which resets the arena under it.
		b.recycle(s)
		if b.p.ReceptionOver() {
			return false
		}
		b.waitNotFull()
	}
}

// GetBatchEach extracts up to n samples, invoking fn(i, s) for the i-th
// one while the buffer lock is held. fn must copy what it needs out of s
// and must not call back into the buffer: as soon as fn returns, a sample
// that permanently left the policy has its arena row recycled and a later
// PutCopy may overwrite the payload. It blocks until n samples were
// delivered or the buffer drained, returning the count and ok=false only
// when the buffer drained before yielding any sample; a shorter final
// batch comes with ok=true (§3.2.3: "When the reception is over and the
// buffer is empty, the training terminates").
func (b *Blocking) GetBatchEach(n int, fn func(i int, s Sample)) (int, bool) {
	return b.GetBatchEachUntil(n, fn, nil)
}

// GetBatchEachUntil is GetBatchEach for a consumer that may give up: it
// also stops waiting for data, returning what it has so far, once stop
// reads true. The consumer sets stop and then calls Wake. "Stop waiting"
// thus belongs to the consumer's run; the buffer records nothing and has
// nothing to undo when the next consumer arrives.
func (b *Blocking) GetBatchEachUntil(n int, fn func(i int, s Sample), stop *atomic.Bool) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	count := 0
	for count < n {
		before := b.p.Len()
		s, ok := b.p.TryGet()
		if !ok {
			if b.p.Drained() || (stop != nil && stop.Load()) {
				break
			}
			b.waitNotEmpty()
			continue
		}
		fn(count, s)
		if b.p.Len() < before {
			// The sample will never be returned again (FIFO/FIRO pop,
			// Reservoir drain-mode removal): journal it for rollback
			// replay if asked, then its row is free.
			if b.onRetire != nil {
				b.onRetire(s)
			}
			b.recycle(s)
		}
		b.notFull.Signal()
		count++
	}
	return count, count > 0
}

// Wake makes every consumer waiting for data re-examine its condition,
// stop signal included (GetBatchEachUntil). Taking the lock orders the
// wake-up after any check a waiter made before parking.
func (b *Blocking) Wake() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notEmpty.Broadcast()
}

func (b *Blocking) waitNotFull() {
	b.parkedPut++
	b.notFull.Wait()
	b.parkedPut--
}

func (b *Blocking) waitNotEmpty() {
	b.parkedGet++
	b.notEmpty.Wait()
	b.parkedGet--
}

// Parked reports how many producers are waiting for room and how many
// consumers are waiting for data right now: back-pressured clients versus
// a starved trainer.
func (b *Blocking) Parked() (producers, consumers int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parkedPut, b.parkedGet
}

// ReplaceContents atomically rewrites the buffer's population: fn receives
// a deep-copied snapshot of the current contents and returns the new ones,
// all under the buffer lock, so no concurrent PutCopy can slip a sample in
// between the read and the restore (it would be wiped, yet already marked
// in the caller's dedup state — a lost sample). The arena is then reset and
// every returned sample copied into a row of its own; one whose payload is
// not exactly a row is dropped, as PutCopy would refuse it. The elastic
// server uses it to rebuild a rank's buffer after a group rollback (replay
// journal ++ live contents), and every restart to load a checkpoint's. The
// reception flag is untouched, and a producer parked in PutCopy holds no
// arena row.
func (b *Blocking) ReplaceContents(fn func(seen, unseen []Sample) (newSeen, newUnseen []Sample)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	seen, unseen := fn(b.p.Snapshot())
	b.arena.reset()
	b.p.RestoreSnapshot(b.intoRows(seen), b.intoRows(unseen))
	b.notEmpty.Broadcast()
	b.notFull.Broadcast()
}

// intoRows copies samples into freshly leased rows, dropping any whose
// payload is not exactly one row.
func (b *Blocking) intoRows(samples []Sample) []Sample {
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if r, ok := b.arena.copyIn(s.SimID, s.Step, s.Input, s.Output); ok {
			out = append(out, r)
		}
	}
	return out
}

// EndReception records that nothing more will arrive (Policy.EndReception;
// one-way) and wakes every waiter so producers and the trainer can observe
// the final state.
func (b *Blocking) EndReception() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.p.EndReception()
	b.notEmpty.Broadcast()
	b.notFull.Broadcast()
}

// Len reports the current population.
func (b *Blocking) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.p.Len()
}

// Drained reports whether the buffer will never yield again.
func (b *Blocking) Drained() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.p.Drained()
}

// WithLock runs fn while holding the buffer mutex, excluding concurrent
// puts and gets. The paper's validation protocol uses exactly this: "During
// validation, new entries in the buffer are blocked by acquiring its mutex"
// (§4.4), while incoming data accumulate in the transport queue. fn may
// read the policy (a checkpoint takes its Snapshot here) but not change its
// population: that is ReplaceContents' job, which keeps every sample on a
// row.
func (b *Blocking) WithLock(fn func(p Policy)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b.p)
}
