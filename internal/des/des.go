// Package des is a minimal discrete-event simulation core: a virtual clock
// and an event queue ordered by (time, insertion sequence). The cluster
// simulator uses it to replay the paper's supercomputer-scale timing
// experiments (thousands of cores, hours of wall time) in milliseconds,
// while running the real buffer and scheduler algorithms.
//
// Event callbacks run sequentially on the caller's goroutine; they may
// schedule further events. Determinism: two events at the same virtual
// time fire in scheduling order.
package des

import "container/heap"

// Time is virtual seconds since simulation start.
type Time = float64

// Simulation owns the clock and the pending event queue.
type Simulation struct {
	now   Time
	queue eventHeap
	seq   int64
}

// New creates an empty simulation at time zero.
func New() *Simulation { return &Simulation{} }

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past (or
// present) fires the event at the current time, after already-pending
// events for that time.
func (s *Simulation) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (s *Simulation) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed.
func (s *Simulation) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	s.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue empties.
func (s *Simulation) Run() {
	for s.Step() {
	}
}

type event struct {
	at  Time
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
