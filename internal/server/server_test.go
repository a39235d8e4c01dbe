package server

import (
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/opt"
	"melissa/internal/protocol"
	"melissa/internal/solver"
)

const (
	testGridN  = 6
	testSteps  = 8
	testDt     = 0.01
	testNField = testGridN * testGridN
)

func testSolverConfig() solver.Config {
	return solver.Config{N: testGridN, Steps: testSteps, Dt: testDt}
}

func testParams(i int) solver.Params {
	return solver.Params{
		TIC: 100 + float64(i*37%400),
		Tx1: 150 + float64(i*61%300),
		Tx2: 200 + float64(i*13%300),
		Ty1: 250 + float64(i*29%200),
		Ty2: 300 + float64(i*47%200),
	}
}

func testConfig(ranks, expectedClients int, kind buffer.Kind) Config {
	norm := core.NewHeatNormalizer(testNField, float64(testSteps)*testDt)
	return Config{
		Ranks:           ranks,
		Buffer:          buffer.Config{Kind: kind, Capacity: 500, Threshold: 2, Seed: 42},
		ExpectedClients: expectedClients,
		Trainer: core.TrainerConfig{
			BatchSize:        4,
			Model:            core.ModelSpec{InputDim: norm.InputDim(), Hidden: []int{16}, OutputDim: norm.OutputDim(), Seed: 7},
			Normalizer:       norm,
			LearningRate:     1e-3,
			Schedule:         opt.Constant(1e-3),
			TrackOccurrences: true,
		},
	}
}

// runServer starts srv.Run in the background and returns a wait function.
func runServer(t *testing.T, srv *Server, ctx context.Context) func() error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	return func() error {
		select {
		case err := <-done:
			return err
		case <-time.After(60 * time.Second):
			t.Fatal("server did not terminate")
			return nil
		}
	}
}

func runClient(t *testing.T, srv *Server, simID, restart, failAt int) error {
	t.Helper()
	job := client.HeatJob{
		Client: client.Config{
			ClientID:    simID,
			SimID:       simID,
			ServerAddrs: srv.Addrs(),
			Restart:     restart,
		},
		Solver:     testSolverConfig(),
		Params:     testParams(simID),
		FailAtStep: failAt,
	}
	return client.RunHeat(context.Background(), job)
}

func TestEndToEndSingleRank(t *testing.T) {
	srv, err := New(testConfig(1, 3, buffer.FIFOKind))
	if err != nil {
		t.Fatal(err)
	}
	wait := runServer(t, srv, context.Background())

	for sim := 0; sim < 3; sim++ {
		if err := runClient(t, srv, sim, 0, 0); err != nil {
			t.Fatalf("client %d: %v", sim, err)
		}
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if got := m.Samples(); got != 3*testSteps {
		t.Fatalf("trained samples %d, want %d", got, 3*testSteps)
	}
	occ := m.Occurrences()
	if len(occ) != 3*testSteps {
		t.Fatalf("unique samples %d, want %d", len(occ), 3*testSteps)
	}
	for k, c := range occ {
		if c != 1 { // FIFO: every sample exactly once
			t.Fatalf("sample %v trained %d times", k, c)
		}
	}
}

func TestEndToEndMultiRankConcurrentClients(t *testing.T) {
	const ranks = 2
	const clients = 4
	srv, err := New(testConfig(ranks, clients, buffer.ReservoirKind))
	if err != nil {
		t.Fatal(err)
	}
	wait := runServer(t, srv, context.Background())

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for sim := 0; sim < clients; sim++ {
		wg.Add(1)
		go func(sim int) {
			defer wg.Done()
			errs[sim] = runClient(t, srv, sim, 0, 0)
		}(sim)
	}
	wg.Wait()
	for sim, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", sim, err)
		}
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	// The Reservoir may repeat samples, but every produced sample must be
	// trained on at least once.
	occ := m.Occurrences()
	if len(occ) != clients*testSteps {
		t.Fatalf("unique samples %d, want %d", len(occ), clients*testSteps)
	}
	if m.Samples() < clients*testSteps {
		t.Fatalf("samples %d below unique count", m.Samples())
	}
	if m.Batches() == 0 {
		t.Fatal("no batches trained")
	}
}

func TestRoundRobinReachesAllRanks(t *testing.T) {
	const ranks = 3
	srv, err := New(testConfig(ranks, 1, buffer.FIFOKind))
	if err != nil {
		t.Fatal(err)
	}
	wait := runServer(t, srv, context.Background())
	if err := runClient(t, srv, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	// Each rank's message log must hold its round-robin share.
	total := 0
	for r := 0; r < ranks; r++ {
		n := srv.receivedOnRank(r)
		if n == 0 {
			t.Fatalf("rank %d received nothing", r)
		}
		total += n
	}
	if total != testSteps {
		t.Fatalf("total received %d, want %d", total, testSteps)
	}
}

// TestClientRestartDeduplication reproduces the paper's fault-tolerance
// protocol: a client fails mid-run, is restarted, and replays its steps;
// the server's message log must discard the duplicates so no time step is
// trained twice (FIFO ⇒ exactly-once).
func TestClientRestartDeduplication(t *testing.T) {
	srv, err := New(testConfig(1, 1, buffer.FIFOKind))
	if err != nil {
		t.Fatal(err)
	}
	wait := runServer(t, srv, context.Background())

	// First attempt dies after 5 of 8 steps (no Goodbye).
	if err := runClient(t, srv, 0, 0, 5); err == nil {
		t.Fatal("expected injected failure")
	}
	// Restart replays steps 1-5 and completes 6-8.
	if err := runClient(t, srv, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	occ := srv.Metrics().Occurrences()
	if len(occ) != testSteps {
		t.Fatalf("unique samples %d, want %d", len(occ), testSteps)
	}
	for k, c := range occ {
		if c != 1 {
			t.Fatalf("sample %v trained %d times; dedup failed", k, c)
		}
	}
}

// TestClientRestartWithCheckpoint verifies the client-side checkpoint path:
// the restarted client resumes from the saved field instead of step 0 and
// the server still assembles the complete trajectory.
func TestClientRestartWithCheckpoint(t *testing.T) {
	srv, err := New(testConfig(1, 1, buffer.FIFOKind))
	if err != nil {
		t.Fatal(err)
	}
	wait := runServer(t, srv, context.Background())

	ck := &client.FileCheckpointer{Dir: t.TempDir()}
	job := client.HeatJob{
		Client:     client.Config{ClientID: 0, SimID: 0, ServerAddrs: srv.Addrs()},
		Solver:     testSolverConfig(),
		Params:     testParams(0),
		Checkpoint: ck,
		FailAtStep: 4,
	}
	if err := client.RunHeat(context.Background(), job); err == nil {
		t.Fatal("expected injected failure")
	}
	step, _, err := ck.Load(0)
	if err != nil || step != 4 {
		t.Fatalf("checkpoint step %d err %v, want 4", step, err)
	}
	job.FailAtStep = 0
	job.Client.Restart = 1
	if err := client.RunHeat(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	occ := srv.Metrics().Occurrences()
	if len(occ) != testSteps {
		t.Fatalf("unique samples %d, want %d", len(occ), testSteps)
	}
}

func TestWatchdogReportsSilentClient(t *testing.T) {
	cfg := testConfig(1, 1, buffer.FIFOKind)
	cfg.WatchdogTimeout = 100 * time.Millisecond
	var reported atomic.Int32
	reported.Store(-1)
	cfg.OnUnresponsive = func(id int32) { reported.Store(id) }
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wait := runServer(t, srv, context.Background())

	// A client that says hello and then goes silent.
	api, err := client.InitCommunication(client.Config{ClientID: 9, SimID: 9, ServerAddrs: srv.Addrs()}, testSteps)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reported.Load() != 9 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never reported the silent client")
		}
		time.Sleep(10 * time.Millisecond)
	}
	api.Abort()

	// Complete the ensemble so the server terminates cleanly.
	if err := runClient(t, srv, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogClampAndIdempotentFire drives the unresponsive-client sweep
// against a fake clock: a pathologically small timeout is clamped to the
// floor, a client whose stale heartbeat re-registers it after its expiry
// was reported does not fire OnUnresponsive a second time, and a Hello
// (the restarted replacement connecting) re-arms the report.
func TestWatchdogClampAndIdempotentFire(t *testing.T) {
	cfg := testConfig(1, 1, buffer.FIFOKind)
	cfg.WatchdogTimeout = time.Microsecond // unit mixup: must clamp, not honor
	var fired []int32
	cfg.OnUnresponsive = func(id int32) { fired = append(fired, id) }
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.cfg.WatchdogTimeout; got != MinWatchdogTimeout {
		t.Fatalf("watchdog timeout %v, want clamped to %v", got, MinWatchdogTimeout)
	}

	now := time.Unix(0, 0)
	srv.watchdog.SetClock(func() time.Time { return now })
	expire := func() {
		now = now.Add(srv.cfg.WatchdogTimeout + time.Millisecond)
		srv.sweepUnresponsive()
	}

	const id = int32(7)
	srv.watchdog.Beat(id)
	expire()
	if len(fired) != 1 || fired[0] != id {
		t.Fatalf("after first expiry fired=%v, want [%d]", fired, id)
	}

	// A late packet from the half-dead client re-registers it; the next
	// expiry is the same episode and must not be reported again.
	srv.watchdog.Beat(id)
	expire()
	if len(fired) != 1 {
		t.Fatalf("same-episode expiry re-fired: %v", fired)
	}

	// The restarted replacement says Hello: the gate re-arms, and a fresh
	// silence is a new episode.
	srv.clientReconnected(id)
	srv.watchdog.Beat(id)
	expire()
	if len(fired) != 2 {
		t.Fatalf("post-reconnect expiry not reported: %v", fired)
	}
}

// TestServerCheckpointRestart kills a server mid-run and restores a fresh
// instance from its checkpoint: training counters resume, already-received
// steps are deduplicated, and the union of trained samples covers the whole
// ensemble.
func TestServerCheckpointRestart(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "server.ckpt")

	cfg := testConfig(1, 2, buffer.FIFOKind)
	cfg.CheckpointPath = ckPath
	cfg.CheckpointEveryBatches = 1
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	wait1 := runServer(t, srv1, ctx1)

	// Sim 0 completes; sim 1 dies halfway (no Goodbye).
	if err := runClient(t, srv1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := runClient(t, srv1, 1, 0, 4); err == nil {
		t.Fatal("expected injected failure")
	}
	// Let the trainer drain what it has, then kill the server.
	time.Sleep(200 * time.Millisecond)
	cancel1()
	if err := wait1(); err != nil {
		t.Fatal(err)
	}
	occ1 := srv1.Metrics().Occurrences()
	if len(occ1) == 0 {
		t.Fatal("first instance trained nothing")
	}

	// Replacement server restores the checkpoint.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.RestoreCheckpoint(ckPath); err != nil {
		t.Fatal(err)
	}
	if srv2.Metrics().Batches() == 0 {
		t.Fatal("restored batch counter is zero")
	}
	if done := srv2.CompletedSims(); !done[0] || done[1] {
		t.Fatalf("restored goodbyes wrong: %v", done)
	}
	wait2 := runServer(t, srv2, context.Background())

	// The launcher would restart only the incomplete client (sim 1).
	if err := runClient(t, srv2, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := wait2(); err != nil {
		t.Fatal(err)
	}

	// Union of both instances' trained samples covers the full ensemble.
	union := map[buffer.Key]bool{}
	for k := range occ1 {
		union[k] = true
	}
	for k := range srv2.Metrics().Occurrences() {
		union[k] = true
	}
	if len(union) != 2*testSteps {
		t.Fatalf("union covers %d samples, want %d", len(union), 2*testSteps)
	}
}

// TestRestoreLegacyCheckpointMigratesSeen writes a checkpoint in the
// pre-bitset on-disk shape (dedup log as per-rank map[Key]bool, SimState
// without the Seen bitset) and restores it: the legacy log must fold into
// the per-sim bitsets so replayed steps are still discarded.
func TestRestoreLegacyCheckpointMigratesSeen(t *testing.T) {
	cfg := testConfig(1, 1, buffer.FIFOKind)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	weights, optState, err := srv.Trainer().CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	type legacySimState struct {
		ClientID int32
		Steps    int32
		Received int32
		Goodbye  bool
	}
	type legacyCheckpoint struct {
		Ranks   int
		Batches int
		Samples int

		Weights  []byte
		OptState []byte

		Seen []map[buffer.Key]bool
		Sims []map[int32]legacySimState

		BufSeen   [][]buffer.Sample
		BufUnseen [][]buffer.Sample
	}
	legacy := legacyCheckpoint{
		Ranks:    1,
		Batches:  3,
		Samples:  12,
		Weights:  weights,
		OptState: optState,
		Seen: []map[buffer.Key]bool{{
			{SimID: 0, Step: 1}: true,
			{SimID: 0, Step: 2}: true,
			{SimID: 0, Step: 3}: true,
		}},
		Sims: []map[int32]legacySimState{{
			0: {ClientID: 0, Steps: testSteps, Received: 3},
		}},
		BufSeen:   make([][]buffer.Sample, 1),
		BufUnseen: make([][]buffer.Sample, 1),
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if err := srv.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().Batches(); got != 3 {
		t.Fatalf("restored batches %d, want 3", got)
	}
	// Replays of the logged steps must be dropped; a fresh step stored.
	for _, step := range []int32{1, 2, 3, 4} {
		ingestZeroStep(srv, step)
	}
	if got := srv.bufs[0].Len(); got != 1 {
		t.Fatalf("buffer holds %d samples, want 1 (steps 1-3 are replays)", got)
	}
}

// ingestZeroStep feeds rank 0 one all-zero frame of simulation 0, the way
// its aggregator would.
func ingestZeroStep(srv *Server, step int32) {
	norm := srv.cfg.Trainer.Normalizer
	ts := protocol.LeaseTimeStep()
	ts.SimID, ts.Step = 0, step
	ts.Input = append(ts.Input[:0], make([]float32, norm.InputDim())...)
	ts.Field = append(ts.Field[:0], make([]float32, norm.OutputDim())...)
	srv.ingestTimeStep(0, ts)
}

// TestUserCancelStaysCancelled is the regression test for the cancel hang:
// a frame that finds its buffer full and reception ended used to reopen
// reception unless the aggregator itself had ended it, so after a user
// cancel a straggler put the Reservoir back in service and the trainer
// never drained. The trainer is parked in its batch hook so the buffer
// stays full; the stragglers must all be dropped while it is still parked.
func TestUserCancelStaysCancelled(t *testing.T) {
	cfg := testConfig(1, 1, buffer.ReservoirKind)
	cfg.Buffer = buffer.Config{Kind: buffer.ReservoirKind, Capacity: 4, Threshold: 2, Seed: 42}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cfg.Trainer.OnBatchEnd = func(int) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := runServer(t, srv, ctx)
	for step := int32(1); step <= 4; step++ {
		ingestZeroStep(srv, step)
	}
	<-parked

	cancel()
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for step := int32(5); step <= 60; step++ {
			ingestZeroStep(srv, step) // fills the buffer, then every frame is refused
		}
	}()
	select {
	case <-produced:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a straggler frame after cancel reopened reception and is waiting for room")
	}
	close(release)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if !srv.bufs[0].Drained() {
		t.Fatalf("buffer not drained after a cancelled run: %d samples left", srv.bufs[0].Len())
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(0, 1, buffer.FIFOKind)
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for ranks=0")
	}
	cfg = testConfig(1, 0, buffer.FIFOKind)
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for ExpectedClients=0")
	}
	cfg = testConfig(1, 1, "bogus")
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for unknown buffer kind")
	}
}
