package buffer

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/testwait"
)

// parked waits until b has exactly the given numbers of waiting producers
// and consumers.
func parked(t *testing.T, b *Blocking, producers, consumers int) {
	t.Helper()
	testwait.Until(t, "the waiter to park", func() bool {
		p, c := b.Parked()
		return p == producers && c == consumers
	})
}

// newTestBuffer wraps p in an arena whose rows fit mkSample's payload.
func newTestBuffer(p Policy) *Blocking { return NewBlockingArena(p, 2, 0) }

// put stores mkSample(sim, step) in b.
func put(b *Blocking, sim, step int) bool {
	s := mkSample(sim, step)
	return b.PutCopy(s.SimID, s.Step, s.Input, s.Output)
}

// get extracts one sample's key.
func get(b *Blocking) (Key, bool) {
	var k Key
	_, ok := b.GetBatchEach(1, func(_ int, s Sample) { k = s.Key() })
	return k, ok
}

func TestBlockingPutGet(t *testing.T) {
	b := newTestBuffer(NewFIFO(0))
	put(b, 0, 0)
	if k, ok := get(b); !ok || k.Step != 0 {
		t.Fatalf("get: ok=%v step=%d", ok, k.Step)
	}
}

func TestBlockingGetWaitsForPut(t *testing.T) {
	b := newTestBuffer(NewFIFO(0))
	done := make(chan Key, 1)
	go func() {
		k, _ := get(b)
		done <- k
	}()
	parked(t, b, 0, 1)
	put(b, 3, 7)
	if k := testwait.Recv(t, done, "the get to wake up"); k != (Key{SimID: 3, Step: 7}) {
		t.Fatalf("wrong sample %+v", k)
	}
}

func TestBlockingPutWaitsWhenFull(t *testing.T) {
	b := newTestBuffer(NewFIFO(1))
	put(b, 0, 0)
	second := make(chan bool, 1)
	go func() { second <- put(b, 0, 1) }()
	parked(t, b, 1, 0)
	if b.Len() != 1 {
		t.Fatal("PutCopy proceeded past capacity")
	}
	if _, ok := get(b); !ok {
		t.Fatal("get failed")
	}
	if !testwait.Recv(t, second, "the blocked PutCopy to complete") {
		t.Fatal("the blocked PutCopy was refused")
	}
}

func TestBlockingGetReturnsFalseWhenDrained(t *testing.T) {
	b := newTestBuffer(NewFIFO(0))
	put(b, 0, 0)
	b.EndReception()
	if _, ok := get(b); !ok {
		t.Fatal("expected the stored sample")
	}
	if _, ok := get(b); ok {
		t.Fatal("expected drained")
	}
	if !b.Drained() {
		t.Fatal("Drained() false")
	}
}

func TestBlockingEndReceptionWakesWaiter(t *testing.T) {
	b := newTestBuffer(NewFIRO(10, 5, 1))
	put(b, 0, 0) // below threshold: a get would block
	done := make(chan bool, 1)
	go func() {
		_, ok := get(b)
		done <- ok
	}()
	parked(t, b, 0, 1)
	b.EndReception()
	if !testwait.Recv(t, done, "EndReception to wake the waiter") {
		t.Fatal("expected last sample, got drained")
	}
}

// TestBlockingWakeStopsWaitingConsumer: a consumer that gives up sets its
// own stop signal and wakes the buffer. It gets back what it had, and the
// buffer is exactly as open as before — the next consumer waits for data
// again, and data still arrives.
func TestBlockingWakeStopsWaitingConsumer(t *testing.T) {
	b := newTestBuffer(NewFIFO(0))
	put(b, 0, 0)
	var stop atomic.Bool
	got := make(chan int, 1)
	getUntil := func(stop *atomic.Bool) {
		n, _ := b.GetBatchEachUntil(4, func(int, Sample) {}, stop)
		got <- n
	}
	go getUntil(&stop)
	parked(t, b, 0, 1)
	stop.Store(true)
	b.Wake()
	if n := testwait.Recv(t, got, "the stopped consumer"); n != 1 {
		t.Fatalf("stopped consumer returned %d samples, want the 1 it had", n)
	}
	if b.Drained() {
		t.Fatal("a consumer's stop ended reception")
	}

	go getUntil(new(atomic.Bool))
	parked(t, b, 0, 1)
	for step := 1; step <= 4; step++ {
		put(b, 0, step)
	}
	if n := testwait.Recv(t, got, "the next consumer's batch"); n != 4 {
		t.Fatalf("next consumer got %d samples, want 4", n)
	}
}

func TestBlockingGetBatch(t *testing.T) {
	b := newTestBuffer(NewFIFO(0))
	for i := 0; i < 25; i++ {
		put(b, 0, i)
	}
	b.EndReception()
	// Two full batches, then the final partial batch of 5.
	for i, want := range []int{10, 10, 5} {
		if n, ok := b.GetBatchEach(10, func(int, Sample) {}); !ok || n != want {
			t.Fatalf("batch %d: ok=%v len=%d, want %d", i+1, ok, n, want)
		}
	}
	if _, ok := b.GetBatchEach(10, func(int, Sample) {}); ok {
		t.Fatal("expected drained after final partial batch")
	}
}

func TestBlockingWithLockExcludesPut(t *testing.T) {
	b := newTestBuffer(NewFIFO(0))
	inCritical := make(chan struct{})
	release := make(chan struct{})
	go b.WithLock(func(Policy) {
		close(inCritical)
		<-release
	})
	<-inCritical
	putDone := make(chan struct{})
	go func() {
		put(b, 0, 0)
		close(putDone)
	}()
	select {
	case <-putDone:
		t.Fatal("PutCopy proceeded while WithLock held the mutex")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-putDone:
	case <-time.After(time.Second):
		t.Fatal("PutCopy never completed after lock release")
	}
}

// TestBlockingConcurrentStress runs multiple producers and one consumer
// through a Reservoir under the race detector, checking conservation of
// the unique sample set.
func TestBlockingConcurrentStress(t *testing.T) {
	b := newTestBuffer(NewReservoir(64, 16, 5))
	const producers = 4
	const perProducer = 500

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				put(b, p, i)
			}
		}(p)
	}
	go func() {
		wg.Wait()
		b.EndReception()
	}()

	seen := map[Key]bool{}
	total := 0
	for {
		k, ok := get(b)
		if !ok {
			break
		}
		seen[k] = true
		total++
	}
	// The Reservoir may repeat samples, but every unique key accepted must
	// appear at least once (never-drop-unseen under concurrency).
	if len(seen) != producers*perProducer {
		t.Fatalf("unique samples %d, want %d", len(seen), producers*perProducer)
	}
	if total < len(seen) {
		t.Fatalf("total %d < unique %d", total, len(seen))
	}
}
