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

func TestBlockingPutGet(t *testing.T) {
	b := NewBlocking(NewFIFO(0))
	b.Put(mkSample(0, 0))
	s, ok := b.Get()
	if !ok || s.Step != 0 {
		t.Fatalf("get: ok=%v step=%d", ok, s.Step)
	}
}

func TestBlockingGetWaitsForPut(t *testing.T) {
	b := NewBlocking(NewFIFO(0))
	done := make(chan Sample, 1)
	go func() {
		s, _ := b.Get()
		done <- s
	}()
	parked(t, b, 0, 1)
	b.Put(mkSample(3, 7))
	if s := testwait.Recv(t, done, "Get to wake up"); s.SimID != 3 || s.Step != 7 {
		t.Fatalf("wrong sample %+v", s)
	}
}

func TestBlockingPutWaitsWhenFull(t *testing.T) {
	b := NewBlocking(NewFIFO(1))
	b.Put(mkSample(0, 0))
	second := make(chan struct{})
	go func() {
		b.Put(mkSample(0, 1))
		close(second)
	}()
	parked(t, b, 1, 0)
	if b.Len() != 1 {
		t.Fatal("Put proceeded past capacity")
	}
	if _, ok := b.Get(); !ok {
		t.Fatal("get failed")
	}
	testwait.Recv(t, second, "the blocked Put to complete")
}

func TestBlockingGetReturnsFalseWhenDrained(t *testing.T) {
	b := NewBlocking(NewFIFO(0))
	b.Put(mkSample(0, 0))
	b.EndReception()
	if _, ok := b.Get(); !ok {
		t.Fatal("expected the stored sample")
	}
	if _, ok := b.Get(); ok {
		t.Fatal("expected drained")
	}
	if !b.Drained() {
		t.Fatal("Drained() false")
	}
}

func TestBlockingEndReceptionWakesWaiter(t *testing.T) {
	b := NewBlocking(NewFIRO(10, 5, 1))
	b.Put(mkSample(0, 0)) // below threshold: Get would block
	done := make(chan bool, 1)
	go func() {
		_, ok := b.Get()
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
	b := NewBlocking(NewFIFO(0))
	b.Put(mkSample(0, 0))
	var stop atomic.Bool
	got := make(chan int, 1)
	get := func(stop *atomic.Bool) {
		n, _ := b.GetBatchEachUntil(4, func(int, Sample) {}, stop)
		got <- n
	}
	go get(&stop)
	parked(t, b, 0, 1)
	stop.Store(true)
	b.Wake()
	if n := testwait.Recv(t, got, "the stopped consumer"); n != 1 {
		t.Fatalf("stopped consumer returned %d samples, want the 1 it had", n)
	}
	if b.Drained() {
		t.Fatal("a consumer's stop ended reception")
	}

	go get(new(atomic.Bool))
	parked(t, b, 0, 1)
	for step := 1; step <= 4; step++ {
		b.Put(mkSample(0, step))
	}
	if n := testwait.Recv(t, got, "the next consumer's batch"); n != 4 {
		t.Fatalf("next consumer got %d samples, want 4", n)
	}
}

func TestBlockingGetBatch(t *testing.T) {
	b := NewBlocking(NewFIFO(0))
	for i := 0; i < 25; i++ {
		b.Put(mkSample(0, i))
	}
	b.EndReception()
	batch, ok := b.GetBatch(10)
	if !ok || len(batch) != 10 {
		t.Fatalf("batch 1: ok=%v len=%d", ok, len(batch))
	}
	batch, ok = b.GetBatch(10)
	if !ok || len(batch) != 10 {
		t.Fatalf("batch 2: ok=%v len=%d", ok, len(batch))
	}
	// Final partial batch of 5.
	batch, ok = b.GetBatch(10)
	if !ok || len(batch) != 5 {
		t.Fatalf("batch 3: ok=%v len=%d, want partial 5", ok, len(batch))
	}
	if _, ok := b.GetBatch(10); ok {
		t.Fatal("expected drained after final partial batch")
	}
}

func TestBlockingTryPut(t *testing.T) {
	b := NewBlocking(NewFIFO(1))
	if !b.TryPut(mkSample(0, 0)) {
		t.Fatal("TryPut refused with space")
	}
	if b.TryPut(mkSample(0, 1)) {
		t.Fatal("TryPut accepted at capacity")
	}
}

func TestBlockingWithLockExcludesPut(t *testing.T) {
	b := NewBlocking(NewFIFO(0))
	inCritical := make(chan struct{})
	release := make(chan struct{})
	go b.WithLock(func(Policy) {
		close(inCritical)
		<-release
	})
	<-inCritical
	putDone := make(chan struct{})
	go func() {
		b.Put(mkSample(0, 0))
		close(putDone)
	}()
	select {
	case <-putDone:
		t.Fatal("Put proceeded while WithLock held the mutex")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-putDone:
	case <-time.After(time.Second):
		t.Fatal("Put never completed after lock release")
	}
}

// TestBlockingConcurrentStress runs multiple producers and one consumer
// through a Reservoir under the race detector, checking conservation of
// the unique sample set.
func TestBlockingConcurrentStress(t *testing.T) {
	b := NewBlocking(NewReservoir(64, 16, 5))
	const producers = 4
	const perProducer = 500

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.Put(mkSample(p, i))
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
		s, ok := b.Get()
		if !ok {
			break
		}
		seen[s.Key()] = true
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
