package scheduler

import (
	"testing"

	"melissa/internal/des"
)

// finishAfter makes a job that runs for d virtual seconds.
func finishAfter(sim *des.Simulation, d des.Time, onDone func()) func(release func()) {
	return func(release func()) {
		sim.After(d, func() {
			if onDone != nil {
				onDone()
			}
			release()
		})
	}
}

func TestJobsRunWhenResourcesFree(t *testing.T) {
	sim := des.New()
	c := New(sim, 40)
	var doneAt []des.Time
	record := func() { doneAt = append(doneAt, sim.Now()) }
	// Three 20-core 10-second jobs on 40 cores: two run immediately, the
	// third waits for a release.
	for i := 0; i < 3; i++ {
		c.Submit(20, finishAfter(sim, 10, record))
	}
	sim.Run()
	if len(doneAt) != 3 {
		t.Fatalf("finished %d jobs", len(doneAt))
	}
	if doneAt[0] != 10 || doneAt[1] != 10 || doneAt[2] != 20 {
		t.Fatalf("completion times %v, want [10 10 20]", doneAt)
	}
	if c.FreeCores() != 40 {
		t.Fatalf("cores leaked: %d free", c.FreeCores())
	}
}

func TestFIFOOrderNoBackfill(t *testing.T) {
	sim := des.New()
	c := New(sim, 40)
	var order []string
	c.Submit(40, finishAfter(sim, 5, func() { order = append(order, "big") }))
	// Head-of-line blocking: big job (40 cores) queued again behind,
	// then a small one that could run but must not overtake.
	c.Submit(40, finishAfter(sim, 5, func() { order = append(order, "big2") }))
	c.Submit(1, finishAfter(sim, 1, func() { order = append(order, "small") }))
	sim.Run()
	if order[0] != "big" || order[1] != "big2" || order[2] != "small" {
		t.Fatalf("order %v, want strict FIFO", order)
	}
}

func TestSubmitOverheadDelaysStart(t *testing.T) {
	sim := des.New()
	c := New(sim, 10)
	c.SubmitOverheadSec = 3
	var startedAt des.Time = -1
	c.Submit(1, func(release func()) {
		startedAt = sim.Now()
		release()
	})
	sim.Run()
	if startedAt != 3 {
		t.Fatalf("started at %v, want 3", startedAt)
	}
}

func TestOversizedJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(des.New(), 10).Submit(11, func(func()) {})
}

func TestDoubleReleasePanics(t *testing.T) {
	sim := des.New()
	c := New(sim, 4)
	c.Submit(1, func(release func()) {
		release()
		defer func() {
			if recover() == nil {
				t.Error("expected panic on double release")
			}
		}()
		release()
	})
	sim.Run()
}

func TestQueueLen(t *testing.T) {
	sim := des.New()
	c := New(sim, 10)
	c.Submit(10, func(release func()) { sim.After(100, release) })
	c.Submit(10, func(release func()) { release() })
	c.Submit(10, func(release func()) { release() })
	queued := -1
	sim.At(50, func() { queued = c.QueueLen() })
	sim.Run()
	if queued != 2 {
		t.Fatalf("queue length %d at t=50, want 2", queued)
	}
	if c.QueueLen() != 0 {
		t.Fatalf("queue not drained")
	}
}

// FreeCores returns the currently idle cores.
func (c *Cluster) FreeCores() int { return c.free }

// QueueLen returns the number of jobs waiting for resources.
func (c *Cluster) QueueLen() int { return len(c.queue) }
