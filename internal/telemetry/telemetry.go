// Package telemetry is a process's one live record of how its training
// run is going: counters and gauges, and a bounded ring of rare events
// (re-formations, checkpoints). Recording allocates nothing and takes no
// lock outside Record; a Snapshot copies it out and String renders it as
// one line. A registry starts no goroutine.
package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter names one of the registry's counters (Add) or gauges (Set, Mark).
type Counter int

const (
	Batches         Counter = iota // synchronized training steps
	Samples                        // samples trained on across ranks, repetitions included
	WireSent                       // gauge: gradient bytes sent over the ring's sockets
	WireRecv                       // gauge: gradient bytes received over them
	GroupEpoch                     // gauge: the elastic group's epoch (0 for a lone process)
	Reforms                        // group re-formations this process lived through
	ClientRestarts                 // ensemble clients the launcher restarted
	ServerRestarts                 // gauge: servers the launcher replaced after a failure
	FramesStored                   // time-step frames stored in a training buffer
	FramesDuplicate                // frames already received (a restarted client's replay) or outside their trajectory
	FramesRefused                  // frames a buffer refused once its reception had ended
	FramesMisSized                 // frames that are not one buffer row: a client of another geometry
	Started                        // gauge (Mark): the latest training run's start
	Finished                       // gauge (Mark): its end, once it has returned
	numCounters
)

// EventKind tells what an Event records.
type EventKind string

const (
	Reform     EventKind = "reform"     // Batch rolled back to (-1: nothing committed), Took since the failed epoch ended
	Checkpoint EventKind = "checkpoint" // Batch and Bytes of the shard, Took the step's pause to write it
)

// Event is one rare occurrence of the run.
type Event struct {
	Kind  EventKind
	Epoch int
	Batch int
	Bytes int
	Took  time.Duration
}

// eventCap bounds the event ring; older events are overwritten.
const eventCap = 64

// origin is the zero of Mark's gauges, on the monotonic clock.
var origin = time.Now()

// Registry holds a run's telemetry. The zero value is ready; all methods are
// safe for concurrent use.
type Registry struct {
	counters [numCounters]atomic.Int64

	mu       sync.Mutex
	events   [eventCap]Event
	recorded int // events ever recorded; the newest is events[(recorded-1) % eventCap]
}

// Add adds n to counter c.
func (r *Registry) Add(c Counter, n int) { r.counters[c].Add(int64(n)) }

// Set sets gauge c to v.
func (r *Registry) Set(c Counter, v int) { r.counters[c].Store(int64(v)) }

// Mark sets gauge c to the present instant.
func (r *Registry) Mark(c Counter) { r.counters[c].Store(int64(time.Since(origin))) }

// Since returns the time since gauge c was marked.
func (r *Registry) Since(c Counter) time.Duration {
	return time.Since(origin) - time.Duration(r.counters[c].Load())
}

// Value reads counter or gauge c.
func (r *Registry) Value(c Counter) int { return int(r.counters[c].Load()) }

// Record appends e to the event ring, overwriting the oldest event once the
// ring is full.
func (r *Registry) Record(e Event) {
	r.mu.Lock()
	r.events[r.recorded%eventCap] = e
	r.recorded++
	r.mu.Unlock()
}

// Snapshot is the registry read counter by counter: each value is exact,
// but an increment may land between two reads.
type Snapshot struct {
	Counters [numCounters]int
	Events   []Event // oldest first, the newest eventCap at most
	// Wall is the latest training run's duration: from Started to Finished,
	// or to now while it runs.
	Wall time.Duration
}

// Snapshot reads the registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for c := range s.Counters {
		s.Counters[c] = int(r.counters[c].Load())
	}
	if start := s.Counters[Started]; start > 0 {
		if s.Wall = time.Duration(s.Counters[Finished] - start); s.Wall < 0 {
			s.Wall = r.Since(Started) // still running
		}
	}
	r.mu.Lock()
	for i := max(0, r.recorded-eventCap); i < r.recorded; i++ {
		s.Events = append(s.Events, r.events[i%eventCap])
	}
	r.mu.Unlock()
	return s
}

// Throughput returns the samples trained on per second of Wall.
func (s Snapshot) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Counters[Samples]) / s.Wall.Seconds()
}

// Last returns the newest event of kind k.
func (s Snapshot) Last(k EventKind) (Event, bool) {
	for i := len(s.Events) - 1; i >= 0; i-- {
		if s.Events[i].Kind == k {
			return s.Events[i], true
		}
	}
	return Event{}, false
}

// String renders the snapshot as a progress line: the training counters,
// the group and its last rollback, the last checkpoint and the ingest frame
// counts.
func (s Snapshot) String() string {
	var b strings.Builder
	c := &s.Counters
	fmt.Fprintf(&b, "%d batches, %d samples, %.1f samples/s", c[Batches], c[Samples], s.Throughput())
	if c[GroupEpoch] > 0 {
		fmt.Fprintf(&b, ", group epoch %d, %d re-form(s)", c[GroupEpoch], c[Reforms])
		if e, ok := s.Last(Reform); ok && e.Batch >= 0 {
			fmt.Fprintf(&b, " (last rollback to batch %d, %v)", e.Batch, e.Took.Round(time.Millisecond))
		}
	}
	if e, ok := s.Last(Checkpoint); ok {
		fmt.Fprintf(&b, ", checkpoint at batch %d (%.1f MB, %v pause)", e.Batch, float64(e.Bytes)/1e6, e.Took.Round(time.Microsecond))
	}
	if n := c[FramesStored] + c[FramesDuplicate] + c[FramesRefused] + c[FramesMisSized]; n > 0 {
		fmt.Fprintf(&b, ", %d frames (%d stored, %d duplicate, %d refused, %d mis-sized)", n, c[FramesStored], c[FramesDuplicate], c[FramesRefused], c[FramesMisSized])
	}
	return b.String()
}
