package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/elastic"
	"melissa/internal/opt"
	"melissa/internal/solver"
	"melissa/internal/telemetry"
	"melissa/internal/testbuf"
	"melissa/internal/testwait"
	"melissa/internal/transport"
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

// heatVector is p in solver.ParamsFromVector's order.
func heatVector(p solver.Params) []float64 {
	return []float64{p.TIC, p.Tx1, p.Ty1, p.Tx2, p.Ty2}
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

// runServer starts srv.Run in the background and returns a wait function
// with the suite's pipeline deadline: a server that never terminates fails
// the test with every goroutine's stack.
func runServer(t *testing.T, srv *Server, ctx context.Context) func() error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	return func() error {
		t.Helper()
		return testwait.Recv(t, done, "Server.Run to return")
	}
}

// testJob describes heat-equation ensemble member simID streaming steps
// time steps to srv.
func testJob(srv *Server, simID, steps int) client.Job {
	cfg := testSolverConfig()
	cfg.Steps = steps
	params := testParams(simID)
	return client.Job{
		Client: client.Config{ClientID: simID, SimID: simID, ServerAddrs: srv.Addrs()},
		NewSim: func() (solver.Simulator, error) { return solver.New(cfg, params) },
		Params: heatVector(params),
		Steps:  steps,
		Dt:     cfg.Dt,
	}
}

func runClient(t *testing.T, srv *Server, simID, restart, failAt int) error {
	t.Helper()
	job := testJob(srv, simID, testSteps)
	job.Client.Restart = restart
	job.FailAtStep = failAt
	return client.Run(context.Background(), job)
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
	if got := m.Telemetry().Value(telemetry.Samples); got != 3*testSteps {
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
	if m.Telemetry().Value(telemetry.Samples) < clients*testSteps {
		t.Fatalf("samples %d below unique count", m.Telemetry().Value(telemetry.Samples))
	}
	if m.Telemetry().Value(telemetry.Batches) == 0 {
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
	job := testJob(srv, 0, testSteps)
	job.Checkpoint = ck
	job.FailAtStep = 4
	if err := client.Run(context.Background(), job); err == nil {
		t.Fatal("expected injected failure")
	}
	step, _, err := ck.Load(0)
	if err != nil || step != 4 {
		t.Fatalf("checkpoint step %d err %v, want 4", step, err)
	}
	job.FailAtStep = 0
	job.Client.Restart = 1
	if err := client.Run(context.Background(), job); err != nil {
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
	testwait.Until(t, "the watchdog to report the silent client", func() bool { return reported.Load() == 9 })
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
	srv.watchdog = transport.NewWatchdog(srv.cfg.WatchdogTimeout, func() time.Time { return now })
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
	cfg := testConfig(1, 2, buffer.FIFOKind)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEveryBatches = 1
	// Sim 0 sends 8 steps and sim 1 6 before it dies, 14 samples at most:
	// three full batches of 4 are certain even if the abort loses a frame or
	// two, a fourth cannot happen.
	drained := make(chan struct{})
	cfg.Trainer.OnBatchEnd = func(batches int) {
		if batches == 3 {
			close(drained)
		}
	}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	wait1 := runServer(t, srv1, ctx1)

	// Sim 0 completes; sim 1 dies halfway (no Goodbye). The checkpoint the
	// restart resumes from must hold sim 0's Goodbye, and nothing orders its
	// ingest before any one checkpoint: so sim 1 starts only once the
	// Goodbye is in, and the server is killed after batch 3, whose samples
	// include sim 1's (sim 0 has only 8) — its checkpoint, written before
	// OnBatchEnd runs, is taken after the Goodbye.
	if err := runClient(t, srv1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	testwait.Until(t, "sim 0's goodbye to be ingested", func() bool { return srv1.CompletedSims()[0] })
	if err := runClient(t, srv1, 1, 0, 6); err == nil {
		t.Fatal("expected injected failure")
	}
	testwait.Recv(t, drained, "the third batch")
	cancel1()
	if err := wait1(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled server returned %v, want the cancellation", err)
	}
	occ1 := srv1.Metrics().Occurrences()
	if len(occ1) == 0 {
		t.Fatal("first instance trained nothing")
	}
	if e, ok := srv1.Metrics().Telemetry().Snapshot().Last(telemetry.Checkpoint); !ok || e.Batch < 3 || e.Bytes == 0 {
		t.Fatalf("last checkpoint event %+v, want one at batch ≥ 3 with its bytes", e)
	}

	// Replacement server restores the checkpoint.
	ckpt := onlyShard(t, cfg.CheckpointDir)
	resumedAt := make(chan int, 1)
	cfg.Trainer.OnBatchEnd = func(batches int) {
		select {
		case resumedAt <- batches:
		default:
		}
	}
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wait2 := runServer(t, srv2, context.Background())
	testwait.Recv(t, srv2.Ingesting(), "the restored server to ingest")
	if done := srv2.CompletedSims(); !done[0] || done[1] {
		t.Fatalf("restored goodbyes wrong: %v", done)
	}

	// The launcher would restart only the incomplete client (sim 1).
	if err := runClient(t, srv2, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := wait2(); err != nil {
		t.Fatal(err)
	}
	if got := <-resumedAt; got != ckpt.Batch+1 {
		t.Fatalf("restored run's first batch is %d, want %d: the batch counter did not resume", got, ckpt.Batch+1)
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
	onlyShard(t, cfg.CheckpointDir)
}

// shards reads every checkpoint shard in dir.
func shards(t *testing.T, dir string) []*elastic.State {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*elastic.State
	for _, p := range paths {
		st, err := elastic.ReadState(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// onlyShard reads the one checkpoint a lone server leaves in dir: each
// shard it writes replaces the one before.
func onlyShard(t *testing.T, dir string) *elastic.State {
	t.Helper()
	st := shards(t, dir)
	if len(st) != 1 {
		t.Fatalf("%d checkpoint shards in %s, want 1", len(st), dir)
	}
	return st[0]
}

// TestServerCheckpointRestartTornSimulation is the 2-rank restart whose cut
// falls inside one simulation: at the batch-1 checkpoint rank 0 holds the
// simulation's whole share and its Goodbye, rank 1 is still short of its
// last frame. The simulation is then not complete — reporting it so (rank
// 0's view alone) means the launcher never re-runs it and the restored rank
// 1 waits for that frame until its context expires. Re-run, the restart
// trains every step exactly once.
func TestServerCheckpointRestartTornSimulation(t *testing.T) {
	const ranks, steps = 2, 16 // 8 steps per rank: even steps on rank 0, odd on rank 1
	cfg := testConfig(ranks, 1, buffer.FIFOKind)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEveryBatches = 1
	batch := cfg.Trainer.BatchSize

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	wait1 := runServer(t, srv1, ctx1)

	// One client seen through its two connections: each half announces the
	// simulation to one rank and sends that rank's share.
	input, field := make([]float64, 6), make([]float64, testNField)
	half := func(rank int) *client.API {
		api, err := client.InitCommunication(client.Config{ServerAddrs: srv1.Addrs()[rank : rank+1]}, steps)
		if err != nil {
			t.Fatal(err)
		}
		return api
	}
	send := func(api *client.API, rank, count int) {
		for i := 0; i < count; i++ {
			if err := api.Send(2*i+2-rank, input, field); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Rank 0 gets everything first. It cannot finish batch 1 without rank
	// 1, so its boundary-1 cut is certain to show the complete share.
	toRank0 := half(0)
	send(toRank0, 0, steps/ranks)
	if err := toRank0.FinalizeCommunication(); err != nil {
		t.Fatal(err)
	}
	testwait.Until(t, "rank 0 to end reception", func() bool {
		a := srv1.aggs[0]
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.ended
	})
	// Rank 1 gets all but its last frame: batch 1 trains and is written,
	// batch 2 waits on rank 1 for a frame that never comes.
	toRank1 := half(1)
	defer toRank1.Abort()
	send(toRank1, 1, steps/ranks-1)
	testwait.Until(t, "the batch-1 checkpoint", func() bool { return len(shards(t, cfg.CheckpointDir)) > 0 })
	cancel1()
	if err := wait1(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled server returned %v, want the cancellation", err)
	}
	st := onlyShard(t, cfg.CheckpointDir)
	if st.Batch != 1 {
		t.Fatalf("checkpoint is at batch %d, want 1", st.Batch)
	}
	checkFileCut(t, st, ranks, batch)

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wait2 := runServer(t, srv2, context.Background())
	testwait.Recv(t, srv2.Ingesting(), "the restored server to ingest")
	if done := srv2.CompletedSims(); done[0] {
		t.Fatalf("simulation 0 reported complete with rank 1 at %d of %d frames: nobody would re-run it", srv2.receivedOnRank(1), steps/ranks)
	}
	job := testJob(srv2, 0, steps)
	job.Client.Restart = 1
	if err := client.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if err := wait2(); err != nil {
		t.Fatal(err)
	}
	occ := srv2.Metrics().Occurrences()
	for step := 1; step <= steps; step++ {
		want := 1
		if step <= ranks*batch {
			want = 0 // batch 1 of either rank: trained before the checkpoint
		}
		if got := occ[buffer.Key{SimID: 0, Step: step}]; got != want {
			t.Errorf("step %d trained %d times after the restart, want %d", step, got, want)
		}
	}
	for r := 0; r < ranks; r++ {
		if got := srv2.receivedOnRank(r); got != steps/ranks {
			t.Errorf("rank %d holds %d distinct frames after the restart, want %d", r, got, steps/ranks)
		}
	}
	onlyShard(t, cfg.CheckpointDir)
}

// ingestStep feeds local rank one all-zero frame, the way its aggregator
// would.
func ingestStep(srv *Server, rank int, sim, step int32) {
	srv.ingestTimeStep(rank, leaseFrame(sim, step, srv.inDim, srv.outDim, 0))
}

func encodeIngest(t testing.TB, ing *ingestState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ing); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkCut asserts the conservation invariant of a FIFO cut taken after
// trained samples per rank (full batches only): on every rank, each sample
// the message log calls received is either trained at the boundary or in the
// buffer snapshot.
func checkCut(t *testing.T, ing *ingestState, trained int) {
	t.Helper()
	for r := range ing.Sims {
		received := 0
		for _, sim := range ing.Sims[r] {
			received += int(sim.Received)
		}
		buffered := len(ing.BufSeen[r]) + len(ing.BufUnseen[r])
		if received != trained+buffered {
			t.Errorf("rank %d: received %d = trained %d + buffered %d (missing %d)",
				r, received, trained, buffered, received-trained-buffered)
		}
	}
}

// checkFileCut is checkCut for a checkpoint file's state; it stops the test
// on a torn cut, which a restart from it would only obscure.
func checkFileCut(t *testing.T, st *elastic.State, ranks, batchSize int) {
	t.Helper()
	ing, err := decodeIngest(st.App, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if checkCut(t, ing, st.Batch*batchSize); t.Failed() {
		t.FailNow()
	}
}

// TestUserCancelStaysCancelled: once a run is cancelled, no straggler frame
// puts a buffer back in service. The trainer is parked in its batch hook
// with the Reservoir full when the cancel lands, so the stragglers find no
// room; they wait — nothing in the buffer says "stop" — until the trainer
// leaves and Run's shutdown ends reception, then every one of them is
// refused and Run returns.
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
		ingestStep(srv, 0, 0, step)
	}
	testwait.Recv(t, parked, "the first batch")

	cancel()
	const stragglers = 56
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for step := int32(5); step < 5+stragglers; step++ {
			ingestStep(srv, 0, 0, step) // fills the buffer, then waits for room
		}
	}()
	testwait.Until(t, "a straggler to find the buffer full", func() bool {
		return testbuf.Peek(srv.bufs[0]).ParkedPut == 1
	})
	close(release)
	if err := wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled server returned %v, want the cancellation", err)
	}
	testwait.Recv(t, produced, "the stragglers to be refused")
	if got := srv.receivedOnRank(0); got >= 4+stragglers {
		t.Fatalf("all %d frames were stored after a cancel; the stragglers were not refused", got)
	}
}

// TestRunReturnsWithAggregatorParked is the regression test for the
// shutdown hang: when training returns for any reason but drained buffers
// — MaxBatches reached, a collective error — while an aggregator is parked
// in PutCopy on a full buffer, nobody will ever make room, and Run used to
// wait for that aggregator forever.
func TestRunReturnsWithAggregatorParked(t *testing.T) {
	cases := map[string]struct {
		maxBatches int
		abort      bool
	}{
		"max-batches":      {maxBatches: 1},
		"collective-error": {abort: true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(1, 1, buffer.FIFOKind)
			cfg.Buffer.Capacity = 2
			cfg.Trainer.MaxBatches = tc.maxBatches
			var srv *Server
			parked, release := make(chan struct{}), make(chan struct{})
			cfg.Trainer.OnBatchEnd = func(batches int) {
				if batches == 1 {
					close(parked)
					<-release
					if tc.abort {
						srv.Trainer().Comm().Abort()
					}
				}
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wait := runServer(t, srv, context.Background())

			// One batch, two frames that fill the FIFO, one that parks the
			// aggregator, and a few queued behind it.
			const frames = 12
			api, err := client.InitCommunication(client.Config{ClientID: 0, SimID: 0, ServerAddrs: srv.Addrs()}, frames)
			if err != nil {
				t.Fatal(err)
			}
			defer api.Abort()
			input, field := make([]float64, 6), make([]float64, testNField)
			for step := 1; step <= frames; step++ {
				if err := api.Send(step, input, field); err != nil {
					t.Fatal(err)
				}
			}
			testwait.Recv(t, parked, "the first batch")
			testwait.Until(t, "the aggregator to park in PutCopy", func() bool {
				return testbuf.Peek(srv.bufs[0]).ParkedPut == 1
			})
			close(release)
			err = wait()
			if tc.abort && !errors.Is(err, transport.ErrRingAborted) {
				t.Fatalf("Run returned %v, want the collective error", err)
			}
			if !tc.abort && err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointIsBoundaryCut is the regression test for the static
// checkpoint's torn cut, which a capture taken while some rank was already
// past the boundary made: a sample in a rank's message log and in neither
// its trained count nor its buffer is discarded by every replay after a
// restart. The checkpoint is taken at the step's closing barrier, so no
// rank can be past it: boundary 1 is held while the aggregators take more
// frames, and no rank extracts batch 2 meanwhile. The written state
// satisfies received == trained + buffered on every rank, and a server
// restarted from it trains each received sample exactly once.
func TestCheckpointIsBoundaryCut(t *testing.T) {
	const ranks, perRank = 2, 12
	cutDir := t.TempDir()
	cfg := testConfig(ranks, 1, buffer.FIFOKind)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEveryBatches = 1
	batch := cfg.Trainer.BatchSize

	held, release, taken := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	cfg.Trainer.OnBatchEnd = func(batches int) {
		if batches == 1 {
			// The server's hook has saved the batch-1 checkpoint, and the
			// next boundary cannot replace it while this one is held.
			close(held)
			<-release
			paths, err := filepath.Glob(filepath.Join(cfg.CheckpointDir, "shard-*.ckpt"))
			for _, p := range paths {
				var data []byte
				if data, err = os.ReadFile(p); err == nil {
					err = os.WriteFile(filepath.Join(cutDir, filepath.Base(p)), data, 0o644)
				}
			}
			taken <- err
		}
	}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Client 0's first two batches per rank, routed round-robin like the
	// client library does.
	for step := int32(1); step <= int32(ranks*2*batch); step++ {
		ingestStep(srv1, int(step)%ranks, 0, step)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait1 := runServer(t, srv1, ctx)
	testwait.Recv(t, held, "boundary 1")
	// The rest of its 24 steps arrive while the boundary is held: every
	// buffer takes them, and none loses batch 2 to its rank.
	for step := int32(ranks*2*batch + 1); step <= ranks*perRank; step++ {
		ingestStep(srv1, int(step)%ranks, 0, step)
	}
	for r, b := range srv1.bufs {
		if got := testbuf.Peek(b).Len; got != perRank-batch {
			t.Fatalf("rank %d holds %d samples at boundary 1, want %d: a rank got past the boundary", r, got, perRank-batch)
		}
	}
	close(release)
	if err := testwait.Recv(t, taken, "the batch-1 checkpoint"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := wait1(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled server returned %v, want the cancellation", err)
	}

	st := onlyShard(t, cutDir)
	if st.Batch != 1 {
		t.Fatalf("copied the batch-%d checkpoint, want batch 1", st.Batch)
	}
	checkFileCut(t, st, ranks, batch)

	// Restart from the cut. The restarted client replays its whole
	// trajectory; every step was received before the checkpoint, so all of
	// it is discarded and only what the checkpoint buffered gets trained.
	cfg.Trainer.OnBatchEnd = nil
	cfg.CheckpointDir = cutDir
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wait2 := runServer(t, srv2, context.Background())
	job := testJob(srv2, 0, ranks*perRank)
	job.Client.Restart = 1
	if err := client.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if err := wait2(); err != nil {
		t.Fatal(err)
	}
	occ := srv2.Metrics().Occurrences()
	for step := 1; step <= ranks*perRank; step++ {
		want := 1
		if step <= ranks*batch {
			want = 0 // batch 1 of either rank: trained before the checkpoint
		}
		if got := occ[buffer.Key{SimID: 0, Step: step}]; got != want {
			t.Errorf("step %d trained %d times after the restart, want %d", step, got, want)
		}
	}
	onlyShard(t, cutDir)
}

// TestCheckpointCutExcludesFrameInFlight: under back-pressure the
// aggregator spends its time parked in PutCopy holding one frame. That
// frame is logged as received only once it is in the buffer, so a cut taken
// meanwhile does not list a sample it cannot restore.
func TestCheckpointCutExcludesFrameInFlight(t *testing.T) {
	cfg := testConfig(1, 1, buffer.FIFOKind)
	cfg.Buffer.Capacity = 4
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.closeListeners()
	for step := int32(1); step <= 4; step++ {
		ingestStep(srv, 0, 0, step)
	}
	stored := make(chan struct{})
	go func() {
		defer close(stored)
		ingestStep(srv, 0, 0, 5)
	}()
	testwait.Until(t, "the fifth frame to park in PutCopy", func() bool {
		return testbuf.Peek(srv.bufs[0]).ParkedPut == 1
	})
	checkCut(t, srv.captureIngest(0), 0)
	srv.bufs[0].EndReception()
	testwait.Recv(t, stored, "the parked frame to be refused")
}

// TestRestoreRejectsMisshapenIngestState: the restore indexes three
// per-rank slices by rank, and all three lengths come from the file; so do
// the payload widths of the samples it would put in buffer rows.
func TestRestoreRejectsMisshapenIngestState(t *testing.T) {
	srv, err := New(testConfig(2, 1, buffer.FIFOKind))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.closeListeners()
	wide := buffer.Sample{Input: make([]float32, 6), Output: make([]float32, testNField+7)}
	shapes := map[string]ingestState{
		"short sims":   {Sims: make([]map[int32]SimState, 1), BufSeen: make([][]buffer.Sample, 2), BufUnseen: make([][]buffer.Sample, 2)},
		"short seen":   {Sims: make([]map[int32]SimState, 2), BufSeen: make([][]buffer.Sample, 1), BufUnseen: make([][]buffer.Sample, 2)},
		"short unseen": {Sims: make([]map[int32]SimState, 2), BufSeen: make([][]buffer.Sample, 2)},
		"long":         {Sims: make([]map[int32]SimState, 3), BufSeen: make([][]buffer.Sample, 3), BufUnseen: make([][]buffer.Sample, 3)},
		"wide sample":  {Sims: make([]map[int32]SimState, 2), BufSeen: [][]buffer.Sample{nil, {wide}}, BufUnseen: make([][]buffer.Sample, 2)},
	}
	for name, ing := range shapes {
		if err := srv.restoreIngest(&elastic.State{App: encodeIngest(t, &ing)}); err == nil {
			t.Errorf("%s: restore accepted a state that does not match 2 ranks", name)
		}
	}
	ok := ingestState{Sims: make([]map[int32]SimState, 2), BufSeen: make([][]buffer.Sample, 2), BufUnseen: make([][]buffer.Sample, 2)}
	if err := srv.restoreIngest(&elastic.State{App: encodeIngest(t, &ok)}); err != nil {
		t.Fatalf("well-shaped state refused: %v", err)
	}
}

// TestEveryPolicyCheckpoints: whatever policy the server holds, a boundary
// capture of a non-empty buffer carries its contents, and a server restored
// from it captures the same contents — seen/unseen split included — with
// every restored sample on an arena row of its own.
func TestEveryPolicyCheckpoints(t *testing.T) {
	for _, kind := range []buffer.Kind{buffer.FIFOKind, buffer.FIROKind, buffer.ReservoirKind, buffer.UniformEvictKind} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := testConfig(1, 1, kind)
			in, out := cfg.Trainer.Normalizer.InputDim(), cfg.Trainer.Normalizer.OutputDim()
			srv1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv1.closeListeners()
			for step := int32(1); step <= 6; step++ {
				srv1.ingestTimeStep(0, leaseFrame(0, step, in, out, float32(100*step)))
			}
			// Above the threshold: a Reservoir's picks move samples to seen.
			srv1.bufs[0].GetBatchEach(2, func(int, buffer.Sample) {})
			want := srv1.captureIngest(0)
			if len(want.BufSeen[0])+len(want.BufUnseen[0]) == 0 {
				t.Fatal("the capture of a non-empty buffer holds no sample")
			}

			srv2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.closeListeners()
			if err := srv2.restoreIngest(&elastic.State{App: encodeIngest(t, want)}); err != nil {
				t.Fatal(err)
			}
			got := srv2.captureIngest(0)
			if !reflect.DeepEqual(got.BufSeen, want.BufSeen) || !reflect.DeepEqual(got.BufUnseen, want.BufUnseen) {
				t.Fatalf("restored contents differ: seen %d/%d, unseen %d/%d",
					len(got.BufSeen[0]), len(want.BufSeen[0]), len(got.BufUnseen[0]), len(want.BufUnseen[0]))
			}
			if st := testbuf.Peek(srv2.bufs[0]); st.Len+st.FreeRows != st.Rows {
				t.Fatalf("%d resident samples + %d free rows != %d rows: restored samples are off the arena", st.Len, st.FreeRows, st.Rows)
			}
		})
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

// FuzzIngestState feeds the restore truncated, misshapen and garbage ingest
// payloads — the bytes come from a checkpoint file. It must return an error
// or restore; it must never panic, whatever lengths the payload claims.
func FuzzIngestState(f *testing.F) {
	const ranks = 2
	sample := buffer.Sample{SimID: 1, Step: 2, Input: make([]float32, 6), Output: make([]float32, testNField)}
	good := ingestState{
		Sims:      []map[int32]SimState{{1: {ClientID: 1, Steps: 8, Received: 2, Seen: []uint64{6}}}, {}},
		BufSeen:   [][]buffer.Sample{nil, {sample}},
		BufUnseen: [][]buffer.Sample{{sample}, nil},
	}
	valid := encodeIngest(f, &good)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(encodeIngest(f, &ingestState{Sims: good.Sims}))
	f.Add(encodeIngest(f, &ingestState{Sims: good.Sims[:1], BufSeen: good.BufSeen, BufUnseen: good.BufUnseen}))
	f.Add(encodeIngest(f, &ingestState{Sims: []map[int32]SimState{{1: {Steps: 1 << 30, Goodbye: true}}, {}}, BufSeen: good.BufSeen, BufUnseen: good.BufUnseen}))
	f.Add([]byte{1, 2, 3})

	srv, err := New(testConfig(ranks, 1, buffer.FIFOKind))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.closeListeners)
	f.Fuzz(func(t *testing.T, app []byte) {
		if err := srv.restoreIngest(&elastic.State{App: app}); err != nil {
			return
		}
		// What was accepted is what the next boundary captures and encodes.
		encodeIngest(t, srv.captureIngest(0))
		for _, b := range srv.bufs {
			b.ReplaceContents(func(_, _ []buffer.Sample) ([]buffer.Sample, []buffer.Sample) { return nil, nil })
		}
	})
}

// receivedOnRank sums the rank's distinct received time steps.
func (s *Server) receivedOnRank(rank int) int {
	a := s.aggs[rank]
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, st := range a.sims {
		total += int(st.Received)
	}
	return total
}
