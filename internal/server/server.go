// Package server implements the Melissa training server (§3.1): per rank,
// a data-aggregator goroutine receives time steps from ensemble clients
// over the transport and stores them in the rank's training buffer, while
// a training goroutine (internal/core) extracts batches and performs
// data-parallel gradient descent. The server also provides the paper's
// fault-tolerance features: a per-client message log that discards
// replayed time steps after client restarts, a liveness watchdog that
// reports unresponsive clients to the launcher, and periodic checkpoints
// from which a replacement server instance resumes training.
//
// The TimeStep receive path is sharded and zero-copy: each rank's
// aggregator owns its dedup/accounting state (per-sim step bitsets instead
// of a shared map under a global mutex), payloads are leased from the
// protocol pool and bulk-copied into the rank buffer's sample arena, and
// the lease is recycled immediately — steady-state ingestion performs no
// heap allocations and ranks never contend with each other.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/elastic"
	"melissa/internal/protocol"
	"melissa/internal/telemetry"
	"melissa/internal/transport"
)

// Config assembles a server.
type Config struct {
	// Ranks is the number of training ranks ("GPUs") hosted by this
	// process; each gets its own listener, aggregator, and training
	// buffer.
	Ranks int
	// ListenHost is the host for rank listeners; tests use "127.0.0.1:0"
	// semantics: each rank listens on ListenHost with an ephemeral port.
	ListenHost string

	// Buffer configures the per-rank training buffer; the seed is offset
	// by rank so replicas draw independent streams.
	Buffer buffer.Config

	// Trainer carries the model, batch size, schedule and validation
	// configuration. Ranks, Comm and Metrics are the server's to set: every
	// trainer it builds records into the one collector Metrics returns.
	Trainer core.TrainerConfig

	// ExpectedClients is the ensemble size: after a Goodbye from this many
	// distinct simulations, a rank ends reception on its buffer.
	ExpectedClients int

	// WatchdogTimeout bounds client silence before the launcher is told to
	// restart it; 0 disables the watchdog. Positive values below
	// MinWatchdogTimeout are clamped up to it: a timeout shorter than the
	// sweep granularity would expire every client between two of its own
	// heartbeats and put the launcher in a kill/restart loop.
	WatchdogTimeout time.Duration
	// OnUnresponsive is invoked (from a server goroutine) with the IDs of
	// clients the watchdog expired.
	OnUnresponsive func(clientID int32)

	// CheckpointDir is where the server's checkpoints go: its shards, the
	// lone process's and a group member's alike. A directory that holds a
	// checkpoint is resumed from it when Run starts. Empty disables
	// checkpoints; a group requires it.
	CheckpointDir string
	// CheckpointEveryBatches is the checkpoint cadence (default 500).
	CheckpointEveryBatches int

	// Elastic, when set, runs the server as one member of an elastic
	// training group — the one way several server processes train together:
	// membership, per-epoch communicators, group checkpointing and rollback
	// come from internal/elastic. See ElasticConfig.
	Elastic *ElasticConfig
}

// MinWatchdogTimeout is the smallest effective client-liveness timeout.
// Pathologically small positive timeouts (microseconds from a unit mixup)
// are clamped up to it rather than honored.
const MinWatchdogTimeout = 20 * time.Millisecond

// ingestQueueLen sizes each rank's transport ingest queue (decoded frames
// waiting for the aggregator).
const ingestQueueLen = 4096

func (c Config) withDefaults() Config {
	if c.ListenHost == "" {
		c.ListenHost = "127.0.0.1:0"
	}
	if c.WatchdogTimeout > 0 && c.WatchdogTimeout < MinWatchdogTimeout {
		c.WatchdogTimeout = MinWatchdogTimeout
	}
	if c.CheckpointEveryBatches <= 0 {
		c.CheckpointEveryBatches = 500
	}
	return c
}

// Server is a live training server.
type Server struct {
	cfg        Config
	worldRanks int // total data ranks across all server processes
	dataOffset int // this process's first global data rank
	listeners  []*transport.RankListener
	bufs       []*buffer.Blocking
	watchdog   *transport.Watchdog
	// inDim and outDim are the model's input and output widths: a buffer
	// row, and the only payload shape ingestTimeStep accepts.
	inDim, outDim int

	// trainer is the one train last built, the current epoch's (trainerMu
	// guards the swap). All of them record into metrics.
	trainerMu sync.Mutex
	trainer   *core.Trainer
	metrics   *core.Metrics

	// The membership runtime — a group of one for a lone process — and, in
	// a group, the per-rank replay journals behind rollback. The aggregators
	// start lazily, closing ingesting: a restarted process must restore its
	// bitsets before judging the first client frame.
	member    *elastic.Member
	journals  []*retireJournal
	aggOnce   sync.Once
	ingesting chan struct{}
	live      bool // an epoch has trained in this process (survivor path)

	// unresponsiveFired holds the clients already reported to
	// OnUnresponsive whose replacement has not yet said Hello. A
	// half-dead client's late message can Beat the watchdog after its
	// expiry was reported, re-registering it and expiring it again on a
	// later sweep; without this gate the launcher would be told to
	// restart the same client twice for one failure.
	unresponsiveMu    sync.Mutex
	unresponsiveFired map[int32]bool

	// aggs holds each rank's aggregator-owned dedup/accounting state.
	// There is no cross-rank mutex on the TimeStep hot path: each rank
	// touches only its own shard, whose (uncontended) mutex exists for
	// the rare cross-goroutine readers — checkpoints and CompletedSims.
	aggs []*rankAgg

	aggWG sync.WaitGroup

	// abort ends the run with a cause that Run returns (see failIfMisSized).
	// Run sets it before any aggregator starts.
	abort context.CancelCauseFunc
}

// ErrMisSized classifies the error Run returns when a simulation's frames
// do not fit the model — a client of another grid or problem than the
// server's. Such frames never count as received, so once the simulation has
// said Goodbye its share can never complete, and the run would otherwise
// wait for it for ever.
var ErrMisSized = errors.New("server: mis-sized frames")

// rankAgg is one rank's aggregator state shard.
type rankAgg struct {
	mu       sync.Mutex
	rank     int // local rank index
	sims     map[int32]*SimState
	goodbyes int  // count of sims with Goodbye, so the hot path is O(1)
	ended    bool // reception has ended on the rank's buffer (receptionComplete)

	// The frame being stored. commit records it as received inside the
	// critical section that inserts it (buffer.Blocking.PutCopyThen), so a
	// checkpoint cut taken under the buffer lock never shows a frame that
	// is received but not buffered, or buffered but not received. Only the
	// rank's aggregator goroutine touches these; commitFn is bound once so
	// the hot path allocates no closure.
	storing     *SimState
	storingStep int32
	completed   bool // the stored frame was the rank's last
	commitFn    func()
}

func (s *Server) newRankAgg(rank int) *rankAgg {
	a := &rankAgg{rank: rank, sims: make(map[int32]*SimState)}
	a.commitFn = func() { s.commit(a) }
	return a
}

// sim returns (creating if needed) the shard's record for a simulation.
// The caller must hold a.mu.
func (a *rankAgg) sim(simID int32) *SimState {
	st, ok := a.sims[simID]
	if !ok {
		st = &SimState{ClientID: -1}
		a.sims[simID] = st
	}
	return st
}

// SimState tracks one ensemble member on one rank: its owner client, the
// declared trajectory length (from Hello), how many distinct steps this
// rank has received, whether a Goodbye arrived, and the per-step dedup
// bitset. Reception ends on a rank only when every completed simulation
// has delivered this rank's full round-robin share — which makes
// termination robust to a restarted client's Goodbye racing ahead of the
// failed client's in-flight data on another connection.
type SimState struct {
	ClientID int32
	Steps    int32
	Received int32
	Goodbye  bool
	// Seen is the message log for this sim on this rank: bit s records
	// that time step s was received. It replaces the unbounded
	// map[Key]bool of earlier revisions — Steps/8 bytes per sim,
	// preallocated at Hello, O(1) duplicate checks without allocation.
	Seen []uint64

	// misSized is the shape of the last frame of this sim the rank could
	// not take; nil while every frame fitted. Checkpoints do not keep it.
	misSized *frameShape
}

// frameShape is a TimeStep's payload lengths.
type frameShape struct{ in, field int }

// maxTrackedStep caps the per-sim dedup bitset at 4M steps (512 KiB of
// log) — a protocol sanity bound far above any real trajectory (the paper
// uses 100 steps). Hello declarations are clamped to it and steps beyond
// it are treated like corrupt frames, because both fields arrive off the
// wire attacker-controlled and must never size an allocation.
const maxTrackedStep = 1 << 22

// maxUntrackedStep is the much tighter bound for sims that never announced
// a trajectory: clients Hello on every connection before streaming, so an
// un-announced TimeStep is already anomalous, and granting it the full
// tracked cap would let one tiny frame per fresh SimID pin a 512 KiB
// bitset. 128K steps (16 KiB of log) is still generous for data racing
// ahead of a restart's re-Hello.
const maxUntrackedStep = 1 << 17

// clampSteps bounds a wire-declared trajectory length to the tracking cap.
func clampSteps(steps int32) int32 {
	if steps > maxTrackedStep {
		return maxTrackedStep
	}
	return steps
}

// unseen reports whether step may still be recorded: it is not in the log
// yet and lies inside the sim's (clamped) declared trajectory — or, when no
// Hello arrived, inside the provisional maxUntrackedStep window. Anything
// else is rejected outright: the wire Step is attacker-controlled, and
// growing the bitset to a lying value would be the same giant-allocation
// DoS the framed reader guards against. Declared trajectories are clamped
// to maxTrackedStep at Hello (and checkpoint restore), so the bounds stay
// consistent and reception accounting can always complete.
func (st *SimState) unseen(step int32) bool {
	if step < 0 {
		return false
	}
	if st.Steps > 0 {
		if step > clampSteps(st.Steps) {
			return false // outside the declared trajectory: corrupt
		}
	} else if step > maxUntrackedStep {
		return false // no Hello: only a tight provisional window is tracked
	}
	w := int(step >> 6)
	return w >= len(st.Seen) || st.Seen[w]&(1<<(uint(step)&63)) == 0
}

// markSeen records step and reports whether it was new (see unseen). Steps
// beyond the preallocated bitset grow it (amortized; Hello normally
// presizes).
func (st *SimState) markSeen(step int32) bool {
	if !st.unseen(step) {
		return false
	}
	w := int(step >> 6)
	if w >= len(st.Seen) {
		st.Seen = append(st.Seen, make([]uint64, w+1-len(st.Seen))...)
	}
	st.Seen[w] |= 1 << (uint(step) & 63)
	return true
}

// presizeSeen ensures the bitset covers steps [0, steps] without further
// growth. Like markSeen it is bounded by maxTrackedStep: steps comes off
// the wire (Hello), and presizing must not be the allocation DoS the
// per-step path rejects.
func (st *SimState) presizeSeen(steps int32) {
	if steps <= 0 {
		return
	}
	steps = clampSteps(steps)
	w := int(steps>>6) + 1
	if w > len(st.Seen) {
		st.Seen = append(st.Seen, make([]uint64, w-len(st.Seen))...)
	}
}

// New builds the server and starts its listeners. Training does not start
// until Run.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("server: ranks=%d must be ≥ 1", cfg.Ranks)
	}
	if cfg.ExpectedClients < 1 {
		return nil, errors.New("server: ExpectedClients must be ≥ 1")
	}
	if cfg.Trainer.Normalizer == nil {
		return nil, errors.New("server: trainer normalizer required")
	}
	world, offset := cfg.Ranks, 0
	if cfg.Elastic != nil {
		if err := cfg.Elastic.validate(); err != nil {
			return nil, err
		}
		if cfg.CheckpointDir == "" {
			return nil, errors.New("server: elastic: checkpoint dir required")
		}
		// The data plane is pinned to the initial membership: a member's
		// global data ranks never move, even as the training group
		// re-forms around dead peers.
		world = cfg.Elastic.InitialMembers * cfg.Ranks
		offset = cfg.Elastic.MemberID * cfg.Ranks
	}
	s := &Server{
		cfg:        cfg,
		worldRanks: world,
		dataOffset: offset,
		aggs:       make([]*rankAgg, cfg.Ranks),
		metrics:    core.NewMetrics(cfg.Trainer.TrackOccurrences),
		inDim:      cfg.Trainer.Normalizer.InputDim(),
		outDim:     cfg.Trainer.Normalizer.OutputDim(),
		ingesting:  make(chan struct{}),
	}
	if cfg.WatchdogTimeout > 0 {
		s.watchdog = transport.NewWatchdog(cfg.WatchdogTimeout, time.Now)
		s.unresponsiveFired = make(map[int32]bool)
	}
	for r := 0; r < cfg.Ranks; r++ {
		s.aggs[r] = s.newRankAgg(r)

		bcfg := cfg.Buffer
		bcfg.Seed += uint64(s.dataOffset+r) * 1000003 // distinct stream per global data rank
		p, err := buffer.New(bcfg)
		if err != nil {
			s.closeListeners()
			return nil, err
		}
		s.bufs = append(s.bufs, buffer.NewBlockingArena(p, s.inDim, s.outDim))

		l, err := transport.Listen(cfg.ListenHost, ingestQueueLen)
		if err != nil {
			s.closeListeners()
			return nil, err
		}
		s.listeners = append(s.listeners, l)
	}

	// The membership runtime persists across a group's epochs, and so do
	// the replay journals. A group of one never re-forms, so it rolls
	// nothing back and keeps no journal.
	mcfg := elastic.MemberConfig{Dir: cfg.CheckpointDir, LocalRanks: cfg.Ranks, Run: s.runEpoch}
	if ec := cfg.Elastic; ec != nil {
		s.journals = make([]*retireJournal, cfg.Ranks)
		for r := range s.journals {
			s.journals[r] = newRetireJournal()
			s.bufs[r].OnRetire(s.journals[r].record)
		}
		mcfg.ID, mcfg.Coordinator, mcfg.BindAddr = ec.MemberID, ec.Coordinator, ec.BindAddr
		mcfg.ConnectTimeout, mcfg.RingOptions = ec.ConnectTimeout, ec.RingOptions
		mcfg.OnCommit = func(batch int) {
			for _, j := range s.journals {
				j.prune(batch)
			}
		}
	}
	member, err := elastic.NewMember(mcfg)
	if err != nil {
		s.closeListeners()
		return nil, err
	}
	s.member = member
	return s, nil
}

// Addrs returns the per-rank listener addresses that clients dial.
func (s *Server) Addrs() []string {
	addrs := make([]string, len(s.listeners))
	for i, l := range s.listeners {
		addrs[i] = l.Addr()
	}
	return addrs
}

// Trainer exposes the training engine (the trained network) of the current
// epoch. It is nil until Run has built one.
func (s *Server) Trainer() *core.Trainer {
	s.trainerMu.Lock()
	defer s.trainerMu.Unlock()
	return s.trainer
}

// Metrics returns the server's one metrics collector: it outlives every
// trainer the server builds, so loss curves and the telemetry registry
// (counters, frame counts, re-formation and checkpoint events) survive
// re-formations.
func (s *Server) Metrics() *core.Metrics { return s.metrics }

// Run resumes from the checkpoint in CheckpointDir if there is one, starts
// the aggregators and the watchdog, trains until every rank's buffer
// drains, then shuts the listeners down. It returns the first training
// error, if any; a run stopped by cancelling ctx returns one that wraps
// context.Canceled, and one that a simulation's mis-sized frames left
// unable to complete returns one that wraps ErrMisSized. A lone process is
// a group of one; a group member trains until the group completes or this
// member is lost. Listeners, aggregators and ingest state live across the
// group's epochs, so clients stay connected through re-formations.
func (s *Server) Run(ctx context.Context) error {
	ctx, s.abort = context.WithCancelCause(ctx)
	defer s.abort(nil)
	if s.watchdog != nil && s.cfg.OnUnresponsive != nil {
		watchdogStop := make(chan struct{})
		defer close(watchdogStop)
		go s.watchdogLoop(watchdogStop)
	}

	err := s.member.Run(ctx) // the first epoch starts the aggregators

	// Whatever made training return — drained buffers, MaxBatches, a
	// cancel, a collective error — nothing consumes from here on, so for
	// every buffer "nothing more will arrive" is now true by decision: end
	// reception before waiting for the aggregators, or one parked in
	// PutCopy on a full buffer would wait for room forever. It and the
	// frames queued behind it are stragglers now: refused and dropped.
	for _, b := range s.bufs {
		b.EndReception()
	}
	s.closeListeners()
	s.startAggs() // a run that failed before training never started them
	s.aggWG.Wait()
	if cause := context.Cause(ctx); errors.Is(cause, ErrMisSized) {
		return cause
	}
	return err
}

// train builds the trainer — the one place that does — over the session's
// communicator, resumes it from restored when non-nil, and runs it. With a
// CheckpointDir, every CheckpointEveryBatches-th step boundary saves the
// process's state as the member's shard, from the trainer's OnBatchEnd
// before the configured one runs. A failed capture or save must not kill
// training; the previous checkpoint remains valid.
func (s *Server) train(ctx context.Context, sess *elastic.Session, restored *elastic.State) error {
	tcfg := s.cfg.Trainer
	tcfg.Ranks, tcfg.Comm, tcfg.Metrics = s.cfg.Ranks, sess.Comm(), s.metrics
	var tr *core.Trainer
	if s.cfg.CheckpointDir != "" {
		userHook := tcfg.OnBatchEnd
		tcfg.OnBatchEnd = func(batches int) {
			if batches%s.cfg.CheckpointEveryBatches == 0 {
				start := time.Now()
				st, err := s.captureIngest(batches).state(tr, batches)
				if err == nil {
					err = sess.SaveShard(st)
				}
				if err != nil {
					fmt.Printf("server: checkpoint failed: %v\n", err)
				} else {
					s.metrics.Telemetry().Record(telemetry.Event{Kind: telemetry.Checkpoint, Epoch: sess.Epoch(), Batch: batches,
						Bytes: len(st.Weights) + len(st.OptState) + len(st.App), Took: time.Since(start)})
				}
			}
			if userHook != nil {
				userHook(batches)
			}
		}
	}
	tr, err := core.NewTrainer(tcfg, s.bufs)
	if err != nil {
		return err
	}
	s.trainerMu.Lock()
	s.trainer = tr
	s.trainerMu.Unlock()
	if restored != nil {
		if err := tr.RestoreState(restored.Weights, restored.OptState, restored.Batch, restored.Samples); err != nil {
			return err
		}
	}
	return tr.Run(ctx)
}

// startAggs launches the per-rank aggregators exactly once. It is deferred
// to the first epoch, after the initial restore: a restarted process must
// load its checkpointed bitsets before the first reconnecting client frame
// is judged fresh or duplicate.
func (s *Server) startAggs() {
	s.aggOnce.Do(func() {
		for r := range s.listeners {
			s.aggWG.Add(1)
			go s.aggregate(r)
		}
		close(s.ingesting)
	})
}

// Ingesting is closed once the aggregators run, after Run restored any
// checkpoint: from then on CompletedSims shows what the checkpoint holds.
func (s *Server) Ingesting() <-chan struct{} { return s.ingesting }

func (s *Server) watchdogLoop(stop chan struct{}) {
	interval := s.cfg.WatchdogTimeout / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.sweepUnresponsive()
		}
	}
}

// sweepUnresponsive reports newly expired clients to OnUnresponsive, at
// most once per expiry episode: a client reported here is muted until its
// replacement reconnects (Hello clears the gate). Factored out of the
// ticker loop so tests can drive it against a fake watchdog clock.
func (s *Server) sweepUnresponsive() {
	expired := s.watchdog.Expired()
	if len(expired) == 0 {
		return
	}
	for _, id := range expired {
		s.unresponsiveMu.Lock()
		fired := s.unresponsiveFired[id]
		if !fired {
			s.unresponsiveFired[id] = true
		}
		s.unresponsiveMu.Unlock()
		if !fired && s.cfg.OnUnresponsive != nil {
			s.cfg.OnUnresponsive(id)
		}
	}
}

// clientReconnected resets the unresponsive gate for a client: a Hello is
// a (re)connect, so its restarted replacement has arrived and a future
// expiry is a fresh episode worth reporting again.
func (s *Server) clientReconnected(id int32) {
	s.unresponsiveMu.Lock()
	delete(s.unresponsiveFired, id)
	s.unresponsiveMu.Unlock()
}

// aggregate is the per-rank data-aggregator thread (§3.1): it polls the
// transport for new data and stores it into the rank's training buffer,
// deduplicating against the rank-local message log.
func (s *Server) aggregate(rank int) {
	defer s.aggWG.Done()
	a := s.aggs[rank]
	for env := range s.listeners[rank].Incoming() {
		switch m := env.Msg.(type) {
		case protocol.Hello:
			a.mu.Lock()
			st := a.sim(m.SimID)
			st.ClientID = m.ClientID
			st.Steps = clampSteps(m.Steps)
			st.presizeSeen(st.Steps)
			a.mu.Unlock()
			if s.watchdog != nil {
				s.clientReconnected(m.ClientID)
				s.watchdog.Beat(m.ClientID)
			}
		case protocol.Heartbeat:
			if s.watchdog != nil {
				s.watchdog.Beat(m.ClientID)
			}
		case *protocol.TimeStep:
			s.ingestTimeStep(rank, m)
		case protocol.Goodbye:
			a.mu.Lock()
			st := a.sim(m.SimID)
			if !st.Goodbye {
				st.Goodbye = true
				a.goodbyes++
			}
			a.mu.Unlock()
			if s.watchdog != nil {
				s.watchdog.Remove(m.ClientID)
			}
			s.failIfMisSized(a, m.SimID)
			s.endIfComplete(a)
		}
	}
}

// ingestTimeStep is the hot path: rank-sharded bitset dedup, bulk copy
// into the rank buffer's arena, lease recycle. Zero steady-state
// allocations (gated by TestIngestZeroAllocSteadyState). Every frame is
// counted as stored, duplicate, refused or mis-sized.
func (s *Server) ingestTimeStep(rank int, m *protocol.TimeStep) {
	a := s.aggs[rank]
	// Both payload lengths come off the wire. A frame that is not exactly
	// one buffer row is corrupt, like a step outside the trajectory: never
	// marked seen, never stored.
	sized := len(m.Input) == s.inDim && len(m.Field) == s.outDim
	a.mu.Lock()
	st := a.sim(m.SimID)
	fresh := sized && st.unseen(m.Step)
	owner := st.ClientID
	if !sized {
		st.misSized = &frameShape{len(m.Input), len(m.Field)}
	}
	a.mu.Unlock()
	outcome := telemetry.FramesStored
	switch {
	case !sized:
		outcome = telemetry.FramesMisSized
	case !fresh:
		outcome = telemetry.FramesDuplicate
	default:
		if s.watchdog != nil && owner >= 0 {
			s.watchdog.Beat(owner)
		}
		// Blocking put: a full buffer suspends ingestion, and TCP
		// backpressure propagates the stall to the clients. The payload
		// is copied into arena rows under the buffer lock, so the lease
		// can be recycled immediately after. A refused put means reception
		// has ended on the buffer — the rank had its full share already, or
		// Run is shutting down — so the frame is a straggler and is
		// dropped, always; it was never recorded as received.
		a.storing, a.storingStep, a.completed = st, m.Step, false
		if !s.bufs[rank].PutCopyThen(int(m.SimID), int(m.Step), m.Input, m.Field, a.commitFn) {
			outcome = telemetry.FramesRefused
		}
		if a.completed {
			// Only now, with the frame stored: a full buffer would refuse
			// the very sample that completed the rank's share.
			s.bufs[rank].EndReception()
		}
	}
	// Stored, duplicate (replay after client restart, §3.1), refused or
	// mis-sized: either way the leased payload is done.
	s.metrics.Telemetry().Add(outcome, 1)
	protocol.RecycleTimeStep(m)
}

// commit records the frame being stored in the message log. It runs under
// the rank buffer's lock, right after the insertion (see rankAgg.storing).
func (s *Server) commit(a *rankAgg) {
	a.mu.Lock()
	a.storing.markSeen(a.storingStep)
	a.storing.Received++
	a.completed = s.receptionComplete(a)
	a.mu.Unlock()
}

// receptionComplete decides whether the rank has everything it will ever
// get: Goodbyes from the whole ensemble and, for every announced
// simulation, this rank's full round-robin share of time steps. The caller
// must hold a.mu and, on true — reported at most once — end reception on
// the rank's buffer after releasing it: the buffer lock is taken before
// a.mu (commit), never after. The goodbye counter keeps the per-message
// cost O(1): the per-sim scan runs only once the whole ensemble has said
// Goodbye.
func (s *Server) receptionComplete(a *rankAgg) bool {
	if a.ended || a.goodbyes < s.cfg.ExpectedClients {
		return false
	}
	for _, st := range a.sims {
		// Only completed members gate termination: a sim that never said
		// Goodbye was abandoned (its restarted replacement will Goodbye
		// under the same sim id). Steps unknown (no Hello processed)
		// cannot be verified; fall back to the goodbye-only rule for it.
		if st.Goodbye && st.Steps > 0 && st.Received < expectedOnRank(st.ClientID, st.Steps, s.dataOffset+a.rank, s.worldRanks) {
			return false
		}
	}
	a.ended = true
	return true
}

// failIfMisSized ends the run with an ErrMisSized error when sim has said
// Goodbye but the rank holds less than its share of the sim's steps and
// some of its frames did not fit the model: those steps will never count,
// so reception could never complete. A sim whose share arrived whole
// despite a mis-sized frame ends nothing.
func (s *Server) failIfMisSized(a *rankAgg, sim int32) {
	a.mu.Lock()
	st := a.sims[sim]
	bad := st.misSized
	short := bad != nil && st.Steps > 0 && st.Received < expectedOnRank(st.ClientID, st.Steps, s.dataOffset+a.rank, s.worldRanks)
	a.mu.Unlock()
	if short {
		s.abort(fmt.Errorf("%w: sim %d sent rank %d frames of %d inputs and %d field values, the model takes %d and %d",
			ErrMisSized, sim, s.dataOffset+a.rank, bad.in, bad.field, s.inDim, s.outDim))
	}
}

// endIfComplete ends reception on the rank's buffer once the aggregator
// knows nothing more will arrive (receptionComplete). Together with
// ingestTimeStep's stored-then-ended step it is the only place reception
// ends while the server runs; Run's shutdown is the other, and nobody
// reopens it.
func (s *Server) endIfComplete(a *rankAgg) {
	a.mu.Lock()
	done := s.receptionComplete(a)
	a.mu.Unlock()
	if done {
		s.bufs[a.rank].EndReception()
	}
}

// expectedOnRank counts the time steps of a client's trajectory that the
// round-robin distribution (§3.2.2: rank = (clientID + step) mod R) routes
// to this rank.
func expectedOnRank(clientID, steps int32, rank, ranks int) int32 {
	if ranks == 1 {
		return steps
	}
	var count int32
	for t := int32(1); t <= steps; t++ {
		if (int(clientID)+int(t))%ranks == rank {
			count++
		}
	}
	return count
}

func (s *Server) closeListeners() {
	for _, l := range s.listeners {
		if l != nil {
			l.Close()
		}
	}
}

// CompletedSims returns the simulations whose data is complete on every
// local rank — a Goodbye and the rank's full round-robin share; the launcher
// uses it after a server restart, once Ingesting is closed, to decide which
// clients must be re-run. One rank is not enough: a checkpoint cut can fall
// after rank 0's last frame and Goodbye but before another rank's last
// frame, and that rank would wait forever for a share nobody re-sends.
func (s *Server) CompletedSims() map[int32]bool {
	out := make(map[int32]bool)
	for r, a := range s.aggs {
		a.mu.Lock()
		if r == 0 {
			for id := range a.sims {
				out[id] = true
			}
		}
		for id := range out {
			st, ok := a.sims[id]
			if !ok || !st.Goodbye || st.Received < expectedOnRank(st.ClientID, st.Steps, s.dataOffset+r, s.worldRanks) {
				delete(out, id)
			}
		}
		a.mu.Unlock()
	}
	return out
}
