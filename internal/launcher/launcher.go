// Package launcher orchestrates and monitors the whole workflow (§3.1): it
// starts the training server, submits client jobs to the available
// execution slots, restarts failed or unresponsive clients, and — when the
// server itself dies — kills the running clients and brings up a
// replacement server from the last checkpoint, re-running only the
// simulations whose data is incomplete.
//
// Jobs are goroutines, and the batch scheduler is MaxConcurrentClients
// slots: a member starts once a slot is free and holds it until its last
// attempt returns.
package launcher

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/client"
	"melissa/internal/server"
	"melissa/internal/solver"
	"melissa/internal/telemetry"
)

// Config assembles an ensemble run.
type Config struct {
	Server server.Config

	// NewSim constructs one ensemble member's simulator for its physical
	// parameters — the problem-plugin hook: the launcher never sees the
	// concrete PDE. Steps and Dt describe the emitted trajectories.
	NewSim func(params []float64) (solver.Simulator, error)
	Steps  int
	Dt     float64
	// Params holds every member's physical parameters, in simulation-ID
	// order; its length is the ensemble size (paper: 250 small runs, 20,000
	// at scale). A restarted member reruns from the same parameters.
	Params [][]float64

	// MaxConcurrentClients bounds simultaneously running clients — the
	// finite resource c behind the paper's inter-simulation bias (§3.2.1).
	MaxConcurrentClients int

	// MaxClientRetries bounds restarts per client.
	MaxClientRetries int
	// ClientRestartBackoff is the base delay before a failed client's
	// first restart; it doubles on every further attempt (capped at
	// maxClientBackoff) so a persistently crashing client cannot hot-loop
	// through its retry budget and hammer the server. 0 selects the
	// 100ms default; negative disables backoff entirely.
	ClientRestartBackoff time.Duration
	// MaxServerRestarts bounds server recoveries from checkpoint.
	MaxServerRestarts int

	// HeartbeatInterval for clients; 0 disables heartbeats.
	HeartbeatInterval time.Duration

	// JobHook, when set, may mutate a job before each attempt —
	// fault-injection entry point for tests.
	JobHook func(simID, attempt int, job *client.Job)

	// InjectServerFailureAfterBatches, when > 0, simulates a server crash
	// after that many batches on the first server instance (test hook for
	// the recovery path).
	InjectServerFailureAfterBatches int
}

const (
	defaultClientBackoff = 100 * time.Millisecond
	maxClientBackoff     = 5 * time.Second
)

// Launcher runs one configured ensemble.
type Launcher struct {
	cfg Config
	// slots holds one token per running client, MaxConcurrentClients at
	// most.
	slots chan struct{}

	// sleep waits for the backoff delay (or the context); tests inject a
	// recorder here so backoff behavior is asserted without wall-clock
	// waits. Reports false when the context ended the wait.
	sleep func(ctx context.Context, d time.Duration) bool
}

// restartBackoff returns the delay before retrying a client that has
// already run attempt times (attempt ≥ 1), or 0 when backoff is disabled.
func (l *Launcher) restartBackoff(attempt int) time.Duration {
	base := l.cfg.ClientRestartBackoff
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = defaultClientBackoff
	}
	d := base
	for i := 1; i < attempt && d < maxClientBackoff; i++ {
		d *= 2
	}
	return min(d, maxClientBackoff)
}

// New validates the configuration.
func New(cfg Config) (*Launcher, error) {
	if len(cfg.Params) < 1 {
		return nil, errors.New("launcher: Params must hold ≥ 1 member")
	}
	if cfg.MaxConcurrentClients < 1 {
		cfg.MaxConcurrentClients = 1
	}
	if cfg.NewSim == nil {
		return nil, errors.New("launcher: NewSim simulator factory required")
	}
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("launcher: Steps=%d must be ≥ 1", cfg.Steps)
	}
	cfg.Server.ExpectedClients = len(cfg.Params)
	l := &Launcher{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxConcurrentClients),
		sleep: func(ctx context.Context, d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return false
			case <-t.C:
				return true
			}
		},
	}
	return l, nil
}

// Run executes the ensemble to completion, recovering from client and
// server failures within the configured budgets, and returns the server
// that completed it: its trainer holds the network, and its telemetry
// counts the client and server restarts of every attempt.
func (l *Launcher) Run(ctx context.Context) (*server.Server, error) {
	clientRestarts := 0
	for attempt := 0; ; attempt++ {
		srv, injected, err := l.runServerAttempt(ctx, attempt, clientRestarts)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err == nil && !injected {
			return srv, nil
		}
		if err != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt >= l.cfg.MaxServerRestarts {
			if err == nil {
				err = errors.New("launcher: injected server failure")
			}
			return nil, fmt.Errorf("launcher: server failed permanently after %d restarts: %w", attempt, err)
		}
		if srv != nil {
			clientRestarts = srv.Metrics().Telemetry().Value(telemetry.ClientRestarts)
		}
	}
}

// runServerAttempt brings up one server instance, drives the pending clients
// against it, and waits for it to finish. The server's telemetry starts
// from the restarts of the attempts before. injected reports a simulated
// server crash.
func (l *Launcher) runServerAttempt(ctx context.Context, attempt, clientRestarts int) (srv *server.Server, injected bool, err error) {
	scfg := l.cfg.Server
	restartCh := make(chan int32, len(l.cfg.Params))
	scfg.OnUnresponsive = func(id int32) { restartCh <- id }

	serverCtx, failServer := context.WithCancel(ctx)
	defer failServer()
	var injectedFlag atomic.Bool
	if attempt == 0 && l.cfg.InjectServerFailureAfterBatches > 0 {
		limit := l.cfg.InjectServerFailureAfterBatches
		prev := scfg.Trainer.OnBatchEnd
		scfg.Trainer.OnBatchEnd = func(batches int) {
			if batches == limit {
				injectedFlag.Store(true)
				failServer() // the "crash": training stops mid-ensemble
			}
			if prev != nil {
				prev(batches)
			}
		}
	}

	// A replacement resumes from the checkpoint its Run finds in the
	// checkpoint directory.
	srv, err = server.New(scfg)
	if err != nil {
		return nil, false, err
	}
	srv.Metrics().Telemetry().Set(telemetry.ClientRestarts, clientRestarts)
	srv.Metrics().Telemetry().Set(telemetry.ServerRestarts, attempt)

	// The paper's launcher kills all running clients when the server
	// dies; cancelling this context is that kill switch.
	clientCtx, killClients := context.WithCancel(ctx)
	defer killClients()

	var clientWG sync.WaitGroup
	clientWG.Add(1)
	go func() {
		defer clientWG.Done()
		l.submitClients(clientCtx, srv, restartCh)
	}()

	runErr := srv.Run(serverCtx)
	killClients()
	clientWG.Wait()
	return srv, injectedFlag.Load(), runErr
}

// submitClients pushes the pending simulations through the execution slots
// in simulation order, restarting failures up to the retry budget. A
// simulation the server's restored checkpoint shows complete is skipped.
// It returns once every client it started has returned.
func (l *Launcher) submitClients(ctx context.Context, srv *server.Server, restartCh <-chan int32) {
	select {
	case <-srv.Ingesting():
	case <-ctx.Done():
		return
	}
	completed := srv.CompletedSims()

	// Per-client cancel functions let the watchdog path kill a hung
	// client so its slot frees up for the restart.
	var mu sync.Mutex
	running := map[int]context.CancelFunc{}
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case id := <-restartCh:
				mu.Lock()
				if cancel, ok := running[int(id)]; ok {
					cancel()
				}
				mu.Unlock()
			}
		}
	}()

	var wg sync.WaitGroup
	defer wg.Wait()
	for id := range l.cfg.Params {
		if completed[int32(id)] {
			continue // data already complete from a previous server
		}
		select {
		case l.slots <- struct{}{}:
		case <-ctx.Done():
			return
		}
		wg.Add(1)
		go func() {
			defer func() { <-l.slots; wg.Done() }()
			l.runClientWithRetries(ctx, srv, id, running, &mu)
		}()
	}
}

func (l *Launcher) runClientWithRetries(ctx context.Context, srv *server.Server, simID int, running map[int]context.CancelFunc, mu *sync.Mutex) {
	for attempt := 0; attempt <= l.cfg.MaxClientRetries; attempt++ {
		if ctx.Err() != nil {
			return
		}
		params := l.cfg.Params[simID]
		job := client.Job{
			Client: client.Config{
				ClientID:          simID,
				SimID:             simID,
				ServerAddrs:       srv.Addrs(),
				HeartbeatInterval: l.cfg.HeartbeatInterval,
				Restart:           attempt,
			},
			NewSim: func() (solver.Simulator, error) { return l.cfg.NewSim(params) },
			Params: params,
			Steps:  l.cfg.Steps,
			Dt:     l.cfg.Dt,
		}
		if l.cfg.JobHook != nil {
			l.cfg.JobHook(simID, attempt, &job)
		}
		cctx, cancel := context.WithCancel(ctx)
		mu.Lock()
		running[simID] = cancel
		mu.Unlock()
		err := client.Run(cctx, job)
		mu.Lock()
		delete(running, simID)
		mu.Unlock()
		cancel()
		if err == nil {
			return
		}
		if ctx.Err() != nil {
			return // launcher shutdown, not a client fault
		}
		srv.Metrics().Telemetry().Add(telemetry.ClientRestarts, 1)
		if attempt < l.cfg.MaxClientRetries {
			if d := l.restartBackoff(attempt + 1); d > 0 && !l.sleep(ctx, d) {
				return
			}
		}
	}
}
