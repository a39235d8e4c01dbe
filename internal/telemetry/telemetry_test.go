package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAddsSumExactly: counters are shared by every rank and
// aggregator goroutine, so concurrent increments must neither race (run it
// under -race) nor lose a count.
func TestConcurrentAddsSumExactly(t *testing.T) {
	const goroutines, adds = 8, 5000
	var r Registry
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				r.Add(Batches, 1)
				r.Add(Samples, 10)
				r.Set(GroupEpoch, 3)
			}
			r.Record(Event{Kind: Checkpoint})
		}()
	}
	// A reader running alongside sees every counter only grow.
	prev := r.Snapshot()
	for i := 0; i < 100; i++ {
		s := r.Snapshot()
		if s.Counters[Batches] < prev.Counters[Batches] || s.Counters[Samples] < prev.Counters[Samples] {
			t.Fatalf("snapshot %v after %v", s.Counters, prev.Counters)
		}
		prev = s
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters[Batches] != goroutines*adds || s.Counters[Samples] != 10*goroutines*adds || s.Counters[GroupEpoch] != 3 || len(s.Events) != goroutines {
		t.Fatalf("after %d×%d adds: %v, %d events", goroutines, adds, s.Counters, len(s.Events))
	}
}

// TestEventRingOverwritesOldest: the ring keeps the newest eventCap events
// in the order they were recorded.
func TestEventRingOverwritesOldest(t *testing.T) {
	var r Registry
	const extra = 5
	for i := 0; i < eventCap+extra; i++ {
		kind := Checkpoint
		if i%10 == 0 {
			kind = Reform
		}
		r.Record(Event{Kind: kind, Batch: i})
	}
	s := r.Snapshot()
	if len(s.Events) != eventCap {
		t.Fatalf("%d events kept, want %d", len(s.Events), eventCap)
	}
	for i, e := range s.Events {
		if e.Batch != extra+i {
			t.Fatalf("event %d is batch %d, want %d", i, e.Batch, extra+i)
		}
	}
	if e, ok := s.Last(Reform); !ok || e.Batch != 60 {
		t.Fatalf("last reform %+v, want batch 60", e)
	}
	if e, ok := s.Last(Checkpoint); !ok || e.Batch != eventCap+extra-1 {
		t.Fatalf("last checkpoint %+v, want batch %d", e, eventCap+extra-1)
	}
	if _, ok := (&Registry{}).Snapshot().Last(Reform); ok {
		t.Fatal("an empty registry has a reform event")
	}
}

// TestWallFollowsTheRun: Wall runs from Started while the run is going,
// stops at Finished, and restarts with the next run; Throughput divides
// the samples by it. The gauges are set by hand, so no clock is read.
func TestWallFollowsTheRun(t *testing.T) {
	var r Registry
	if s := r.Snapshot(); s.Wall != 0 || s.Throughput() != 0 {
		t.Fatalf("no run yet, wall %v, throughput %v", s.Wall, s.Throughput())
	}
	r.Add(Samples, 100)
	r.Set(Started, 1000)
	r.Set(Finished, 5000)
	if s := r.Snapshot(); s.Wall != 4*time.Microsecond || s.Throughput() != 25e6 {
		t.Fatalf("a run from 1µs to 5µs: wall %v, throughput %v", s.Wall, s.Throughput())
	}
	// The next run, still going 6µs after the process started: its wall
	// runs to now, far past the finished run's 4µs.
	r.Set(Started, 6000)
	if s := r.Snapshot(); s.Wall <= 4*time.Microsecond {
		t.Fatalf("a running run's wall %v", s.Wall)
	}
}

// TestStringRendersTheLine: the progress line carries the counters, the
// group's epoch and last rollback, the last checkpoint and the frame
// counts; a lone process (epoch 0) shows no group.
func TestStringRendersTheLine(t *testing.T) {
	var r Registry
	r.Add(Batches, 3)
	r.Add(Samples, 30)
	for _, c := range []Counter{FramesStored, FramesDuplicate, FramesRefused, FramesMisSized} {
		r.Add(c, 1)
	}
	r.Record(Event{Kind: Checkpoint, Batch: 20, Bytes: 1_500_000})
	lone := r.Snapshot().String()
	for _, want := range []string{"3 batches, 30 samples", "checkpoint at batch 20 (1.5 MB", "4 frames (1 stored, 1 duplicate, 1 refused, 1 mis-sized)"} {
		if !strings.Contains(lone, want) {
			t.Fatalf("%q lacks %q", lone, want)
		}
	}
	if strings.Contains(lone, "group") {
		t.Fatalf("a lone process's line shows a group: %q", lone)
	}
	r.Set(GroupEpoch, 2)
	r.Add(Reforms, 1)
	r.Record(Event{Kind: Reform, Epoch: 2, Batch: 10})
	if got := r.Snapshot().String(); !strings.Contains(got, "group epoch 2, 1 re-form(s) (last rollback to batch 10") {
		t.Fatalf("%q lacks the group", got)
	}
}
