// Package client implements the Melissa client library: the minimalist API
// the paper exposes to instrument simulation codes (§3.1) — a call to
// connect (InitCommunication), a Send per computed time step, and a closing
// FinalizeCommunication — plus a ready-made runner (Run) that instruments
// any solver.Simulator. The client performs the paper's in-situ processing:
// the solver's float64 field is reduced to float32 before transmission
// (§3.2.2), and time steps are distributed round-robin across server ranks
// with the starting rank chosen from the client id.
package client

import (
	"context"
	"fmt"
	"sync"
	"time"

	"melissa/internal/ddp"
	"melissa/internal/protocol"
	"melissa/internal/solver"
	"melissa/internal/tensor"
	"melissa/internal/transport"
)

// Config identifies a client and locates the server.
type Config struct {
	ClientID    int
	SimID       int
	ServerAddrs []string
	DialTimeout time.Duration
	// HeartbeatInterval controls liveness pings; 0 disables them (tests).
	HeartbeatInterval time.Duration
	// Restart is the number of times the launcher restarted this client;
	// it is forwarded so the server knows duplicates may follow.
	Restart int
	// Reconnect enables mid-stream resilience for elastic server groups:
	// a send failure marks the rank down and Send keeps succeeding —
	// frames routed to the dead rank are dropped while a background
	// redial loop (ddp.Retry backoff) re-establishes the connection and
	// re-announces the client with a fresh Hello; the server's dedup log
	// makes any overlap idempotent. Sends fail only once every rank is
	// down. Off (the default), a send failure is returned to the caller —
	// the fail-fast contract the launcher's restart policy expects.
	Reconnect bool
}

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 10 * time.Second
	}
	return c
}

// API is a live connection from one simulation client to all server ranks.
type API struct {
	cfg   Config
	conn  *transport.ClientConn
	steps int

	// sendMu guards the reusable send state: the float32 conversion
	// scratch and the boxed TimeStep message. Reusing them makes the
	// per-step send path allocation-free (the in-situ float64→float32
	// reduction of §3.2.2 lands in recycled buffers, and passing a
	// *TimeStep avoids re-boxing the message per step).
	sendMu sync.Mutex
	msg    protocol.TimeStep

	// Reconnect-mode state: which ranks are down and which have a redial
	// loop in flight. ctx cancels the redial loops on Abort/Finalize.
	downMu    sync.Mutex
	down      []bool
	redialing []bool
	ctx       context.Context
	cancel    context.CancelFunc

	hbStop chan struct{}
	hbDone sync.WaitGroup
}

// InitCommunication connects to every server rank, announces the client
// with a Hello on each connection, and starts the heartbeat loop. The dial
// is wrapped in the ddp retry/backoff policy, so a client started during a
// server re-formation (or slightly before the server) connects as soon as
// the listeners come up instead of failing fast. In reconnect mode the dial
// also tolerates dead ranks: unreachable addresses start out down with a
// redial loop working on them, so a simulation launched while part of an
// elastic group is gone still streams to the survivors. totalSteps declares
// how many time steps this client will produce.
func InitCommunication(cfg Config, totalSteps int) (*API, error) {
	cfg = cfg.withDefaults()
	var conn *transport.ClientConn
	var downRanks []int
	err := ddp.Retry(context.Background(), 5, 100*time.Millisecond, func() error {
		var err error
		if cfg.Reconnect {
			conn, downRanks, err = transport.DialAvailable(cfg.ServerAddrs, cfg.DialTimeout)
		} else {
			conn, err = transport.Dial(cfg.ServerAddrs, cfg.DialTimeout)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("client %d: %w", cfg.ClientID, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &API{
		cfg: cfg, conn: conn, steps: totalSteps,
		down: make([]bool, conn.Ranks()), redialing: make([]bool, conn.Ranks()),
		ctx: ctx, cancel: cancel,
		hbStop: make(chan struct{}),
	}
	if cfg.Reconnect {
		for _, r := range downRanks {
			a.downMu.Lock()
			a.down[r] = true
			a.redialing[r] = true
			a.downMu.Unlock()
			go a.redialLoop(r)
		}
		// Hello rank by rank: a rank dying under the announcement is the
		// same failure Send tolerates, so it joins the redial policy
		// instead of aborting the client.
		for r := 0; r < conn.Ranks(); r++ {
			if a.isDown(r) {
				continue
			}
			if err := conn.Send(r, a.hello()); err != nil {
				a.rankFailed(r)
			}
		}
	} else if err := conn.SendAll(a.hello()); err != nil {
		cancel()
		conn.Close()
		return nil, fmt.Errorf("client %d: hello: %w", cfg.ClientID, err)
	}
	if cfg.HeartbeatInterval > 0 {
		a.hbDone.Add(1)
		go a.heartbeatLoop()
	}
	return a, nil
}

func (a *API) hello() protocol.Hello {
	return protocol.Hello{
		ClientID: int32(a.cfg.ClientID),
		SimID:    int32(a.cfg.SimID),
		Steps:    int32(a.steps),
		Restart:  int32(a.cfg.Restart),
	}
}

func (a *API) heartbeatLoop() {
	defer a.hbDone.Done()
	ticker := time.NewTicker(a.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-a.hbStop:
			return
		case <-ticker.C:
			// Best effort: a failed heartbeat means the connection is
			// dying; the send path (or the reconnect policy) handles it.
			hb := protocol.Heartbeat{ClientID: int32(a.cfg.ClientID)}
			for r := 0; r < a.conn.Ranks(); r++ {
				if a.isDown(r) {
					continue
				}
				if err := a.conn.Send(r, hb); err != nil && a.cfg.Reconnect {
					a.rankFailed(r)
				}
			}
		}
	}
}

// isDown reports whether the reconnect policy considers the rank dead.
func (a *API) isDown(rank int) bool {
	a.downMu.Lock()
	defer a.downMu.Unlock()
	return a.down[rank]
}

// rankFailed marks a rank down after a send error and ensures one redial
// loop is running for it. It reports how many ranks remain up.
func (a *API) rankFailed(rank int) (upLeft int) {
	a.conn.MarkDown(rank)
	a.downMu.Lock()
	a.down[rank] = true
	spawn := !a.redialing[rank]
	if spawn {
		a.redialing[rank] = true
	}
	for r := range a.down {
		if !a.down[r] {
			upLeft++
		}
	}
	a.downMu.Unlock()
	if spawn {
		go a.redialLoop(rank)
	}
	return upLeft
}

// redialLoop re-establishes a dead rank's connection with exponential
// backoff, then re-announces the client with a fresh Hello — the server's
// per-sim dedup bitsets make the overlap between dropped and re-sent
// frames idempotent. On success the rank rejoins the round-robin; on
// exhaustion it stays down and its share of frames keeps being dropped.
func (a *API) redialLoop(rank int) {
	err := ddp.Retry(a.ctx, 60, 100*time.Millisecond, func() error {
		if err := a.conn.Redial(rank, a.cfg.DialTimeout); err != nil {
			return err
		}
		if err := a.conn.Send(rank, a.hello()); err != nil {
			a.conn.MarkDown(rank)
			return err
		}
		return nil
	})
	a.downMu.Lock()
	a.redialing[rank] = false
	if err == nil {
		a.down[rank] = false
	}
	a.downMu.Unlock()
}

// Rank returns the destination server rank for a given time step: round
// robin offset by the client id, so that concurrently-started clients do
// not all hit the same rank with their first step (§3.2.2).
func (a *API) Rank(step int) int {
	return (a.cfg.ClientID + step) % a.conn.Ranks()
}

// Send streams one solver time step. input carries the raw simulation
// parameters and time value; field is the solver's float64 field, reduced
// to float32 here, in situ, before it crosses the wire. The frame is
// written through the rank's buffered writer and flushed — one explicit
// flush point per solver step, so any frames already buffered on the same
// rank (heartbeats, a preceding step) coalesce into the same syscall.
func (a *API) Send(step int, input []float64, field []float64) error {
	rank := a.Rank(step)
	if a.cfg.Reconnect && a.isDown(rank) {
		return nil // dropped: the rank is down, its redial loop is working
	}
	a.sendMu.Lock()
	a.msg.SimID = int32(a.cfg.SimID)
	a.msg.Step = int32(step)
	a.msg.Input = toF32(a.msg.Input, input)
	a.msg.Field = toF32(a.msg.Field, field)
	err := a.conn.Send(rank, &a.msg)
	a.sendMu.Unlock()
	if err == nil || !a.cfg.Reconnect {
		return err
	}
	if a.rankFailed(rank) == 0 {
		return fmt.Errorf("client %d: every server rank is down: %w", a.cfg.ClientID, err)
	}
	return nil // dropped this frame; surviving ranks keep streaming
}

// FinalizeCommunication signals every rank that no more data will be sent,
// then disconnects. In reconnect mode, down ranks are skipped — a Goodbye
// cannot reach a dead process, and the server's reception accounting
// treats the silent rank's share as abandoned — but at least one rank must
// take the Goodbye for the ensemble bookkeeping to complete.
func (a *API) FinalizeCommunication() error {
	a.stopHeartbeats()
	a.cancel()
	bye := protocol.Goodbye{ClientID: int32(a.cfg.ClientID), SimID: int32(a.cfg.SimID)}
	var err error
	if a.cfg.Reconnect {
		delivered := 0
		for r := 0; r < a.conn.Ranks(); r++ {
			if a.isDown(r) {
				continue
			}
			if serr := a.conn.Send(r, bye); serr == nil {
				delivered++
			} else if err == nil {
				err = serr
			}
		}
		if delivered > 0 {
			err = nil
		} else if err == nil {
			err = fmt.Errorf("client %d: goodbye reached no rank", a.cfg.ClientID)
		}
	} else {
		err = a.conn.SendAll(bye)
	}
	if cerr := a.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort disconnects without a Goodbye, simulating a crash; tests and the
// launcher's kill path use it.
func (a *API) Abort() {
	a.stopHeartbeats()
	a.cancel()
	a.conn.Close()
}

func (a *API) stopHeartbeats() {
	select {
	case <-a.hbStop:
	default:
		close(a.hbStop)
	}
	a.hbDone.Wait()
}

// toF32 rounds in to float32 into dst's storage, growing it only when
// capacity is insufficient.
func toF32(dst []float32, in []float64) []float32 {
	if cap(dst) < len(in) {
		dst = make([]float32, len(in))
	}
	dst = dst[:len(in)]
	tensor.F64ToF32(dst, in)
	return dst
}

// Job fully describes one ensemble member of any problem: a simulator
// factory, the raw physical parameters it was drawn with (the prefix of
// every streamed input vector), and the trajectory geometry. This is the
// problem-agnostic contract the launcher schedules.
type Job struct {
	Client Config
	// NewSim constructs the simulator; called once per attempt so a
	// restarted client starts from fresh (or checkpointed) solver state.
	NewSim func() (solver.Simulator, error)
	// Params are the raw physical parameters; each Send transmits them
	// followed by the physical time of the step.
	Params []float64
	// Steps is the trajectory length, Dt the physical seconds per step.
	Steps int
	Dt    float64
	// Checkpoint optionally persists solver state so a restarted client
	// resumes "from the last checkpoint only" (§3.1) instead of step 0.
	Checkpoint Checkpointer
	// StepDelay inserts an artificial pause per step; tests use it to
	// shape production rates.
	StepDelay time.Duration
	// FailAtStep > 0 makes the client abort (no Goodbye) after sending
	// that step — fault-injection hook for the launcher tests.
	FailAtStep int
}

// Run executes one instrumented ensemble member: init, one Send per
// computed time step, finalize. The context aborts the client between
// steps, emulating a kill by the launcher or a node failure.
func Run(ctx context.Context, job Job) error {
	if job.NewSim == nil {
		return fmt.Errorf("client %d: no simulator factory", job.Client.ClientID)
	}
	sim, err := job.NewSim()
	if err != nil {
		return err
	}
	startStep := 0
	if job.Checkpoint != nil {
		step, field, err := job.Checkpoint.Load(job.Client.SimID)
		if err != nil {
			return fmt.Errorf("client %d: loading checkpoint: %w", job.Client.ClientID, err)
		}
		if step > 0 {
			if err := sim.Restore(step, field); err != nil {
				return err
			}
			startStep = step
		}
	}

	api, err := InitCommunication(job.Client, job.Steps)
	if err != nil {
		return err
	}

	// Raw surrogate inputs: the physical parameters and the physical time,
	// normalized downstream by the trainer. One reusable vector serves
	// every step.
	base := job.Params
	input := make([]float64, len(base)+1)
	copy(input, base)

	for sim.StepIndex() < job.Steps {
		select {
		case <-ctx.Done():
			api.Abort()
			return ctx.Err()
		default:
		}
		if err := sim.StepOnce(); err != nil {
			api.Abort()
			return err
		}
		step := sim.StepIndex()
		if step <= startStep {
			continue // replaying to reach checkpoint state; already sent
		}
		if job.StepDelay > 0 {
			select {
			case <-ctx.Done():
				api.Abort()
				return ctx.Err()
			case <-time.After(job.StepDelay):
			}
		}
		input[len(base)] = float64(step) * job.Dt
		if err := api.Send(step, input, sim.Field()); err != nil {
			api.Abort()
			return fmt.Errorf("client %d: send step %d: %w", job.Client.ClientID, step, err)
		}
		if job.Checkpoint != nil {
			if err := job.Checkpoint.Save(job.Client.SimID, step, sim.Field()); err != nil {
				api.Abort()
				return fmt.Errorf("client %d: checkpoint: %w", job.Client.ClientID, err)
			}
		}
		if job.FailAtStep > 0 && step >= job.FailAtStep {
			api.Abort()
			return fmt.Errorf("client %d: injected failure at step %d", job.Client.ClientID, step)
		}
	}
	return api.FinalizeCommunication()
}
