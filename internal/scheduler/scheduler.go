// Package scheduler is a Slurm/OAR-style batch scheduler over the virtual
// clock of internal/des: jobs request cores, wait in a FIFO queue, start
// when resources free up, and release on completion. It also covers the
// paper's schedule-in-schedule pattern (§3.1): a pilot job reserves a large
// allocation and sub-jobs are scheduled inside it, avoiding per-job
// scheduler overheads for short ensemble members. A pilot is a job of the
// outer Cluster that runs a nested Cluster over its cores, on the same
// clock.
package scheduler

import (
	"fmt"

	"melissa/internal/des"
)

// Cluster is a pool of cores managed by a FIFO scheduler.
type Cluster struct {
	sim   *des.Simulation
	total int
	free  int
	queue []*job
	// SubmitOverheadSec is charged between submission and eligibility,
	// modelling batch-scheduler latency.
	SubmitOverheadSec float64
}

// New creates a cluster with totalCores cores scheduled on sim's clock.
func New(sim *des.Simulation, totalCores int) *Cluster {
	if totalCores < 1 {
		panic(fmt.Sprintf("scheduler: invalid core count %d", totalCores))
	}
	return &Cluster{sim: sim, total: totalCores, free: totalCores}
}

type job struct {
	cores int
	start func(release func())
}

// Submit queues a job needing cores. When resources are available, start is
// invoked on the virtual clock; the job must call release exactly once when
// done, returning its cores to the pool. Jobs larger than the cluster are
// rejected with a panic — a configuration bug, as in real Slurm.
func (c *Cluster) Submit(cores int, start func(release func())) {
	if cores > c.total {
		panic(fmt.Sprintf("scheduler: job wants %d cores, cluster has %d", cores, c.total))
	}
	if cores < 1 {
		cores = 1
	}
	j := &job{cores: cores, start: start}
	c.sim.After(c.SubmitOverheadSec, func() {
		c.queue = append(c.queue, j)
		c.tryStart()
	})
}

// tryStart launches queued jobs in FIFO order while resources allow.
// Strict FIFO (no backfill): a large job at the head blocks smaller ones,
// as in the paper's description of busy partitions.
func (c *Cluster) tryStart() {
	for len(c.queue) > 0 && c.queue[0].cores <= c.free {
		j := c.queue[0]
		c.queue = c.queue[1:]
		c.free -= j.cores
		released := false
		j.start(func() {
			if released {
				panic("scheduler: double release")
			}
			released = true
			c.free += j.cores
			c.tryStart()
		})
	}
}
